// Package httpobs is the HTTP observability edge both daemons mount
// around their mux: it starts (or adopts, via the X-Tapas-Trace /
// X-Tapas-Parent headers) the process-local root span of a request,
// echoes the trace ID to the client, captures the response status, times
// the request into the latency histogram, and renders the key=value
// request log line. It also owns the one definition of a request's
// client identity, which the gateway's rate limiter keys on too.
//
// What differs between the daemons is passed in as hooks: tapas-serve
// stores the client in the request context (its search-level slow log
// reads it back), the gateway tags the span with the answering replica
// and owns its slow_request policy.
package httpobs

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tapas/internal/logkv"
	"tapas/internal/promtext"
	"tapas/internal/trace"
)

// ClientHeader optionally names the caller; without it the client IP
// stands in.
const ClientHeader = "X-Tapas-Client"

// Client names the request's caller: the X-Tapas-Client header when
// present, else the client IP.
func Client(r *http.Request) string {
	if c := r.Header.Get(ClientHeader); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// statusWriter captures the response status for logging and span
// attrs. It forwards Flush (SSE streams) and unwraps for
// http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Exchange is one finished request as the Exit hook sees it.
type Exchange struct {
	Request *http.Request
	Header  http.Header // response headers
	Status  int
	Dur     time.Duration
	Client  string
	Span    *trace.Span // nil when the request is not traced; still open
}

// LogLine renders the request log line under the given event name;
// extra key/value pairs land between client and trace.
func (x Exchange) LogLine(event string, extra ...any) string {
	pairs := append([]any{
		"method", x.Request.Method,
		"path", x.Request.URL.Path,
		"status", x.Status,
		"dur", x.Dur,
		"client", x.Client,
	}, extra...)
	return logkv.Line(event, append(pairs, "trace", x.Span.TraceID())...)
}

// Config wires the middleware to one daemon.
type Config struct {
	Rec  *trace.Recorder     // nil disables tracing
	Hist *promtext.Histogram // tapas_request_duration_seconds
	// Enter, when set, derives the context the handler runs under from
	// the traced request context and the client identity.
	Enter func(ctx context.Context, client string) context.Context
	// Exit, when set, runs once the handler has returned and the status
	// attr is set, before the span ends: the place for daemon-specific
	// span attrs and the request log.
	Exit func(Exchange)
}

// Wrap mounts the middleware around a daemon mux. /metrics and the
// flight recorder's own endpoints are exempt — scraping must not fill
// the ring buffer it reads.
func Wrap(cfg Config, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if path == "/metrics" || path == "/v1/traces" || strings.HasPrefix(path, "/v1/traces/") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		client := Client(r)
		traceID, parentID := trace.Extract(r.Header)
		ctx, span := cfg.Rec.StartRequest(r.Context(), r.Method+" "+path, traceID, parentID)
		if span != nil {
			span.SetAttr("client", client)
			w.Header().Set(trace.TraceHeader, span.TraceID())
		}
		if cfg.Enter != nil {
			ctx = cfg.Enter(ctx, client)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		cfg.Hist.Observe(dur.Seconds())
		span.SetAttr("status", strconv.Itoa(status))
		if cfg.Exit != nil {
			cfg.Exit(Exchange{Request: r, Header: w.Header(), Status: status, Dur: dur, Client: client, Span: span})
		}
		span.End()
	})
}
