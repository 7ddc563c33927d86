// Command tapas-gateway fronts a fleet of tapas-serve replicas with
// one address: the horizontal scale-out tier of the serving stack.
//
// Requests that name a search (sync search, batch, job submit) are
// routed by consistent hash of the search identity — graph fingerprint
// × device count × cluster × result-changing options, the same key the
// replicas' caches and stores use — so repeat traffic for one plan
// always lands on the replica whose memory cache already holds it.
// Job status/cancel/events follow the replica that owns the job.
// Replicas are health-checked actively (/v1/healthz, every 2 s) and
// failed over along the hash ring on transport errors; which replica
// answered is reported in the X-Tapas-Replica response header.
//
// -replicas fixes the replica set for the life of the process. The
// ring is a pure function of that list and job owners are recovered by
// probing, so a restart with a new list reaches the same routing.
//
// With -rate R, each client (the X-Tapas-Client header, else the client
// IP) gets a token bucket of depth max(1, 2R); requests beyond it are
// answered 429 with Retry-After, which service.Client's GET retries
// honor.
//
// Every request takes one proxy path: the body is read (at most 8 MB),
// routed, and the replica's answer streamed back unbuffered, SSE
// flushed as it goes. Identical concurrent searches share one key, so
// they reach one replica, whose engine runs the search once and joins
// the rest onto it (tapas_cache_joined_total).
//
// docs/api-v1.md ("Surface") has the one table of every endpoint and
// flag, which daemon serves it and the question it answers.
//
// Every proxied request gets a gateway span: requests arriving with
// X-Tapas-Trace are adopted into that trace, untraced requests are
// sampled 1-in-N (-trace-sample), and the propagation headers are
// rewritten on the way to the replica so its spans parent under the
// gateway hop. The trace ID is echoed in the X-Tapas-Trace response
// header; GET /v1/traces/{id} on each process returns its slice of
// the tree.
//
// Usage:
//
//	tapas-gateway -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	tapas-gateway -addr :8090 -replicas ... -rate 10
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"time"

	"tapas/internal/cli"
	"tapas/internal/trace"
)

func main() {
	ctx, stop := cli.Context(0)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// run is the whole gateway: parse args, probe the fleet once, serve
// until ctx ends, drain. It returns the process exit code (2: bad
// flags). ready, when set, learns the bound address.
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("tapas-gateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	var replicas cli.StringList
	fs.Var(&replicas, "replicas", "comma-separated tapas-serve base URLs (required)")
	rate := fs.Float64("rate", 0, "per-client request rate (tokens/second, bursts up to max(1, 2*rate); 0 disables rate limiting)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	pprofAddr := fs.String("pprof-addr", "", "listen address of the pprof debug server (empty disables)")
	traceSample := fs.Int("trace-sample", 0, "record 1 in N untraced requests in the flight recorder (0 disables sampling; requests arriving with X-Tapas-Trace are always recorded)")
	traceSlow := fs.Duration("trace-slow", 0, "log a slow_request line for requests at least this long (0 disables)")
	logRequests := fs.Bool("log-requests", false, "log one key=value line per proxied request")
	if err := fs.Parse(args); err != nil {
		return cli.UsageCode(err)
	}
	logf := log.New(stderr, "tapas-gateway: ", log.LstdFlags|log.Lmsgprefix).Printf
	if len(replicas) == 0 {
		logf("no replicas given; use -replicas http://host:port,...")
		return 2
	}

	gw := newGateway(gatewayConfig{
		replicas:    replicas,
		rate:        *rate,
		logf:        logf,
		rec:         trace.NewRecorder(trace.Config{Process: "tapas-gateway" + *addr, SampleEvery: *traceSample}),
		traceSlow:   *traceSlow,
		logRequests: *logRequests,
	})
	defer cli.ServePprof(*pprofAddr, logf)()
	gw.checkAll(ctx) // seed health state before taking traffic
	hctx, stopHealth := context.WithCancel(ctx)
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		gw.runHealth(hctx)
	}()
	logf("routing %d replicas (rate=%g)", len(replicas), *rate)
	err := cli.Server{
		Addr:         *addr,
		Handler:      gw.handler(),
		DrainTimeout: *drainTimeout,
		Logf:         logf,
		Ready:        ready,
	}.Run(ctx)
	stopHealth()
	<-healthDone
	if err != nil {
		logf("serving: %v", err)
		return 1
	}
	logf("bye")
	return 0
}
