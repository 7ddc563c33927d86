package cli

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// ServePprof exposes the runtime profiler on its own listener when addr
// is non-empty, keeping the profiling surface off the public API port,
// until the returned stop is called. The mux is explicit — only the
// pprof handlers are mounted, nothing else the default ServeMux may have
// accumulated. A listen failure is logged, not fatal: a daemon must not
// die because its debug port is taken.
func ServePprof(addr string, logf func(format string, args ...any)) (stop func()) {
	if addr == "" {
		return func() {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logf("pprof listener failed: %v", err)
		return func() {}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	logf("pprof listening on %s", ln.Addr())
	go func() { _ = srv.Serve(ln) }() // ends when stop closes srv
	return func() { _ = srv.Close() }
}
