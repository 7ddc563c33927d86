// Command tapas-serve is the TAPAS HTTP daemon: a long-running server
// wrapping one shared search Engine, so the result cache and
// singleflight dedupe serve repeat traffic in microseconds.
//
// docs/api-v1.md ("Surface") has the one table of every endpoint and
// every flag, which daemon serves it and the question it answers; the
// sections after it give the JSON schemas. In short:
//
//   - -store-dir persists every searched plan and serves repeat traffic
//     from it across restarts (hit precedence: memory cache → store →
//     search), bounded by -store-max (LRU), and makes jobs durable under
//     <store-dir>/jobs: orphaned queued/running jobs left by a crash or
//     kill -9 are adopted at start-up under their original IDs.
//   - -store-peer (repeatable, needs -store-dir) replicates that corpus:
//     writes fan out write-behind and local misses fall through to peers
//     with read-repair, so when every replica lists every other as a
//     -store-peer, killing any replica — a record's writer included —
//     loses no warm state.
//   - -fleet makes the daemon a distributed-cold-search coordinator
//     that scatters enumeration prefix tasks over POST /v1/tasks (which
//     every daemon serves) and falls back to the local pool, with the
//     plan bit-identical to a single-process search.
//
// SIGINT/SIGTERM drain gracefully: intake stops (new requests get JSON
// 503 bodies), running jobs get -drain-timeout to finish, then their
// contexts are cancelled; the plan store's write-behind queue and the
// replication fan-out are drained before exit.
//
// Usage:
//
//	tapas-serve -addr :8080
//	tapas-serve -addr :8080 -store-dir /var/lib/tapas/plans
//	tapas-serve -addr :8080 -store-dir /var/lib/tapas/plans -store-peer http://replica-b:8080
//	tapas-serve -addr :8080 -fleet http://replica-b:8080,http://replica-c:8080
//	tapas-serve -addr :8080 -queue 128 -job-workers 4 -cache 256 -drain-timeout 10s
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"tapas"
	"tapas/internal/cli"
	"tapas/internal/trace"
	"tapas/service"
	"tapas/service/dispatch"
	"tapas/store"
	"tapas/store/remotebackend"
	"tapas/store/replicate"
)

func main() {
	ctx, stop := cli.Context(0)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// run is the whole daemon: parse args, wire store → jobs → fleet →
// service, serve until ctx ends, drain, close. It returns the process
// exit code (2: bad flags). ready, when set, learns the bound address.
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) (code int) {
	fs := flag.NewFlagSet("tapas-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "async job queue capacity (submissions beyond it get 429)")
	jobWorkers := fs.Int("job-workers", 2, "jobs run concurrently")
	workers := fs.Int("workers", 0, "search worker goroutines per job (0 = GOMAXPROCS)")
	cache := fs.Int("cache", tapas.DefaultCacheSize, "result cache entries (0 disables)")
	storeDir := fs.String("store-dir", "", "persistent plan store directory, with job records under jobs/; plans and accepted jobs survive restarts (empty disables)")
	var storePeers cli.StringList
	fs.Var(&storePeers, "store-peer", "peer daemon URL to replicate the -store-dir corpus with (repeatable, commas allowed): writes fan out to every peer, local misses fall through with read-repair")
	storeMax := fs.Int("store-max", store.DefaultMaxEntries, "plan store record bound (LRU eviction past it)")
	storeProbe := fs.Duration("store-probe-interval", 3*time.Second, "how often a down replication peer is re-probed")
	maxFinished := fs.Int("max-finished", 256, "finished jobs retained for status polling")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs and in-flight requests before cancelling them")
	var fleet cli.StringList
	fs.Var(&fleet, "fleet", "comma-separated peer daemon URLs to scatter cold searches across (e.g. http://replica-b:8080,http://replica-c:8080)")
	taskTimeout := fs.Duration("task-timeout", 2*time.Minute, "per-peer deadline of one scattered task batch (with -fleet)")
	pprofAddr := fs.String("pprof-addr", "", "listen address of the pprof debug server (empty disables)")
	traceSample := fs.Int("trace-sample", 0, "record 1 in N untraced requests in the flight recorder (0 disables sampling; requests arriving with X-Tapas-Trace are always recorded)")
	traceSlow := fs.Duration("trace-slow", 0, "log a slow_request line for searches at least this long (0 disables)")
	logRequests := fs.Bool("log-requests", false, "log one key=value line per request")
	if err := fs.Parse(args); err != nil {
		return cli.UsageCode(err)
	}
	logf := log.New(stderr, "tapas-serve: ", log.LstdFlags|log.Lmsgprefix).Printf
	defer func() { // registered first, so it runs after every close below
		if code == 0 {
			logf("bye")
		}
	}()

	if *storeDir == "" && len(storePeers) > 0 {
		logf("-store-peer replicates the local corpus: add -store-dir")
		return 2
	}
	fail := func(what string, err error) int {
		logf("%s: %v", what, err)
		return 1
	}

	rec := trace.NewRecorder(trace.Config{Process: "tapas-serve" + *addr, SampleEvery: *traceSample})
	cfg := service.Config{
		EngineOptions: []tapas.Option{
			tapas.WithWorkers(*workers),
			tapas.WithCache(*cache),
		},
		QueueSize:   *queue,
		JobWorkers:  *jobWorkers,
		MaxFinished: *maxFinished,
		Trace:       rec,
		TraceSlow:   *traceSlow,
		Logf:        logf,
		LogRequests: *logRequests,
	}
	if *storeDir != "" {
		st, repl, err := openStore(store.Options{
			Dir:        *storeDir,
			MaxEntries: *storeMax,
			OnCorrupt: func(path string, err error) {
				logf("store: skipping unreadable record %s: %v", path, err)
			},
		}, storePeers, replicate.Options{
			ProbeInterval: *storeProbe,
			Logf:          logf,
			Trace:         rec,
		})
		if err != nil {
			return fail("opening plan store", err)
		}
		logf("plan store (dir %q, %d peers): %d records", *storeDir, len(storePeers), st.Len())
		// Runs once the listener and the job queue have drained: flush
		// the write-behind queue so plans searched moments before the
		// shutdown survive into the next process, then the replication
		// fan-out queues, so those plans also reach the peers.
		defer func() {
			_ = st.Close()
			if repl != nil {
				_ = repl.Close()
			}
		}()
		cfg.EngineOptions = append(cfg.EngineOptions, tapas.WithStore(st))
		if repl != nil {
			cfg.Replication = repl
		}
		jb, err := store.NewFS(filepath.Join(*storeDir, "jobs"))
		if err != nil {
			return fail("opening job store", err)
		}
		cfg.JobsBackend = jb
		cfg.OnJobCorrupt = func(id string, err error) {
			logf("jobs: record %s: %v", id, err)
		}
	}
	if len(fleet) > 0 {
		coord := dispatch.New(dispatch.Options{
			Peers:       fleet,
			TaskTimeout: *taskTimeout,
			Logf:        logf,
		})
		defer coord.Close()
		cfg.EngineOptions = append(cfg.EngineOptions, tapas.WithTaskRunner(coord.Runner))
		cfg.Fleet = coord
		logf("scattering cold searches across %d peers (task-timeout %v)", len(fleet), *taskTimeout)
	}
	defer cli.ServePprof(*pprofAddr, logf)()
	svc, err := service.New(cfg)
	if err != nil {
		return fail("loading durable jobs", err)
	}
	if st := svc.Stats(); st.JobsDurable {
		logf("durable jobs %s: %d records, %d adopted", filepath.Join(*storeDir, "jobs"), st.JobStore.Records, st.JobsAdopted)
	}
	logf("queue=%d job-workers=%d cache=%d", *queue, *jobWorkers, *cache)
	err = cli.Server{
		Addr:         *addr,
		Handler:      service.NewHandler(svc),
		DrainTimeout: *drainTimeout,
		Drain:        svc.Shutdown,
		Logf:         logf,
		Ready:        ready,
	}.Run(ctx)
	if err != nil {
		// The listener never opened, or died. Jobs adopted at start-up
		// are not drained: their records stay durable for the next
		// process, as after a crash.
		return fail("serving", err)
	}
	return 0
}

// openStore opens the plan store the flags describe: the opts.Dir
// corpus, owned by this daemon alone, or — with peers — replicated
// across them, in which case the fan-out backend is returned as well so
// the caller can report and drain it.
func openStore(opts store.Options, peers []string, ropts replicate.Options) (*store.Store, *replicate.Backend, error) {
	var repl *replicate.Backend
	if len(peers) > 0 {
		// Replicated corpus: this daemon owns bytes locally AND fans
		// writes out to every peer; reads fall through with read-repair.
		local, err := store.NewFS(opts.Dir)
		if err != nil {
			return nil, nil, err
		}
		ropts.Local = local
		for _, u := range peers {
			ropts.Peers = append(ropts.Peers, replicate.Peer{Name: u, Backend: remotebackend.New(u)})
		}
		if repl, err = replicate.New(ropts); err != nil {
			return nil, nil, err
		}
		// The store reads index misses through repl, so records only
		// the peers hold — plans written while this replica was down —
		// are read-repaired; -store-max eviction deletes this replica's
		// own files (repl.Local()).
		opts.Backend = repl
	}
	st, err := store.Open(opts)
	if err != nil {
		if repl != nil {
			_ = repl.Close()
		}
		return nil, nil, err
	}
	return st, repl, nil
}
