// Package dispatch scatters a cold search's prefix tasks across a
// fleet of tapas-serve peers. A Coordinator implements the engine's
// task-runner hook (tapas.WithTaskRunner): when a search with a wire
// identity (registered model name or inline spec) starts a cold
// enumeration, the Coordinator receives the enumeration's prefix tasks
// as a wire batch, ships chunks of them to healthy peers over
// POST /v1/tasks, and executes its own share — plus every chunk no
// peer could take — on the local pool.
//
// Correctness never depends on the fleet: the strategy layer merges
// task results in serial depth-first order and recomputes anything
// missing, malformed, or deadline-cut, so the final plan is
// bit-identical to a single-process search whether peers are fast,
// slow, wrong, or on fire. The fleet buys wall-clock time only.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/parallel"
	"tapas/internal/strategy"
	"tapas/internal/trace"
	"tapas/service"
)

// Options configures a Coordinator. Peers is required; everything else
// has serviceable defaults.
type Options struct {
	// Peers are the base URLs of the fleet's other daemons (this
	// process excluded), e.g. "http://10.0.0.2:8080".
	Peers []string
	// TaskTimeout bounds one peer attempt: the HTTP round trip and the
	// shipped DeadlineMS both derive from it (default 2m). A peer that
	// exceeds it is marked unhealthy and its chunk fails over.
	TaskTimeout time.Duration
	// ProbeInterval spaces background health probes of unhealthy peers
	// (default 3s). Negative disables probing, and then a peer marked
	// unhealthy stays so: the scatter skips it, and only the probe loop
	// ever marks a peer healthy again.
	ProbeInterval time.Duration
	// Logf observes scatter decisions (nil: silent).
	Logf func(format string, args ...any)
}

// chunkTasks is how many prefix tasks travel per request. Smaller
// chunks spread better; larger ones amortize the rebuild of the
// enumeration context on the peer.
const chunkTasks = 8

// peer is one fleet member and its health bit. Unhealthy peers are
// skipped by the scatter and re-tested by the probe loop, whose
// successful health check is the only way back to healthy.
type peer struct {
	url     string
	client  *service.Client
	healthy atomic.Bool
}

// Coordinator scatters prefix-task batches across the fleet. Construct
// with New, wire into an engine via Runner, retire with Close.
type Coordinator struct {
	peers       []*peer
	taskTimeout time.Duration
	sem         chan struct{} // bounds concurrently shipped chunks
	logf        func(string, ...any)

	scattered  atomic.Uint64 // tasks executed by peers
	failedOver atomic.Uint64 // chunk attempts moved after an error
	local      atomic.Uint64 // tasks executed by the local pool

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New builds a Coordinator over the given fleet and starts its health
// probe loop.
func New(opts Options) *Coordinator {
	if opts.TaskTimeout <= 0 {
		opts.TaskTimeout = 2 * time.Minute
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 3 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		taskTimeout: opts.TaskTimeout,
		sem:         make(chan struct{}, max(2, 2*len(opts.Peers))),
		logf:        logf,
	}
	for _, u := range opts.Peers {
		cl := service.NewClient(u)
		// Attempt contexts bound every call; the client's own timeout
		// and retry machinery would fight the coordinator's failover.
		cl.HTTPClient = &http.Client{}
		cl.MaxRetries = 0
		p := &peer{url: u, client: cl}
		p.healthy.Store(true)
		c.peers = append(c.peers, p)
	}
	pctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeDone = make(chan struct{})
	if opts.ProbeInterval > 0 && len(c.peers) > 0 {
		go c.probeLoop(pctx, opts.ProbeInterval)
	} else {
		close(c.probeDone)
	}
	return c
}

// Close stops the probe loop. In-flight scatters finish on their own
// contexts.
func (c *Coordinator) Close() {
	c.probeCancel()
	<-c.probeDone
}

// probeLoop re-tests unhealthy peers so a recovered daemon rejoins the
// scatter without waiting for a failed attempt against it.
func (c *Coordinator) probeLoop(ctx context.Context, every time.Duration) {
	defer close(c.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, p := range c.peers {
			if p.healthy.Load() {
				continue
			}
			hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, err := p.client.Health(hctx)
			cancel()
			if err == nil && !p.healthy.Swap(true) {
				c.logf("dispatch: peer %s healthy again", p.url)
			}
		}
	}
}

// FleetStats snapshots the coordinator for healthz/metrics.
func (c *Coordinator) FleetStats() service.FleetStats {
	fs := service.FleetStats{
		Peers:           len(c.peers),
		TasksScattered:  c.scattered.Load(),
		TasksFailedOver: c.failedOver.Load(),
		TasksLocal:      c.local.Load(),
	}
	for _, p := range c.peers {
		if p.healthy.Load() {
			fs.PeersHealthy++
		}
	}
	return fs
}

// Runner is the engine hook (tapas.WithTaskRunner): it returns a
// TaskRunner scattering batches of the referenced search across the
// fleet, or nil when the search has no wire identity or the fleet is
// empty — the engine then enumerates locally as before.
func (c *Coordinator) Runner(ref tapas.TaskRef) strategy.TaskRunner {
	if len(c.peers) == 0 || (ref.Model == "" && ref.Spec == "") {
		return nil
	}
	return &fleetRunner{c: c, ref: ref}
}

// fleetRunner scatters one search's batches. It is cheap and stateless
// beyond the coordinator; the engine may call Runner per search.
type fleetRunner struct {
	c   *Coordinator
	ref tapas.TaskRef
}

// Fanout asks the enumeration to split into enough tasks to feed every
// machine's pool a few chunks each.
func (r *fleetRunner) Fanout() int {
	return (len(r.c.peers) + 1) * parallel.Workers(0) * 4
}

// RunTasks scatters the batch: tasks are chunked, each chunk gets a
// home slot round-robin across peers and the local pool, and a chunk
// whose peer fails or times out retries the next healthy peer before
// falling back to local execution. Results are positional with
// batch.Tasks; a nil error means every task answered.
func (r *fleetRunner) RunTasks(ctx context.Context, batch strategy.TaskBatch) ([]strategy.TaskResult, error) {
	c := r.c
	n := len(batch.Tasks)
	results := make([]strategy.TaskResult, n)
	var wg sync.WaitGroup
	nslots := len(c.peers) + 1 // slot len(peers) = the local pool
	for start, ci := 0, 0; start < n; start, ci = start+chunkTasks, ci+1 {
		end := min(start+chunkTasks, n)
		wg.Add(1)
		go func(start, end, home int) {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
			case <-ctx.Done():
				return
			}
			res := c.runChunk(ctx, r.ref, batch, batch.Tasks[start:end], home)
			copy(results[start:end], res)
		}(start, end, ci%nslots)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// runChunk executes one chunk of specs, trying healthy peers from its
// home slot and falling back to the local pool. The returned slice is
// positional with specs; the strategy layer recomputes anything a
// misbehaving peer left missing.
func (c *Coordinator) runChunk(ctx context.Context, ref tapas.TaskRef, batch strategy.TaskBatch, specs []strategy.TaskSpec, home int) []strategy.TaskResult {
	ctx, chunkSpan := trace.StartSpan(ctx, "dispatch.chunk")
	chunkSpan.SetAttr("tasks", strconv.Itoa(len(specs)))
	defer chunkSpan.End()
	npeers := len(c.peers)
	attempted := false
	for off := 0; off < npeers; off++ {
		slot := (home + off) % (npeers + 1)
		if slot == npeers {
			break // the local slot ends the peer rotation
		}
		p := c.peers[slot]
		if !p.healthy.Load() {
			continue
		}
		if attempted {
			c.failedOver.Add(1)
			chunkSpan.SetAttr("failed_over", "true")
		}
		attempted = true
		res, err := c.ship(ctx, p, ref, batch, specs)
		if err == nil {
			c.scattered.Add(uint64(len(specs)))
			chunkSpan.SetAttr("executor", p.url)
			return res
		}
		if ctx.Err() != nil {
			return nil // the search is over; don't blame the peer
		}
		var apiErr *service.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode < 500 {
			// 4xx: the peer is alive but rejected the batch (version
			// skew, unknown model). Keep it healthy, stop shipping this
			// search to it.
			c.logf("dispatch: peer %s rejected tasks: %v", p.url, err)
			continue
		}
		if p.healthy.Swap(false) {
			c.logf("dispatch: peer %s unhealthy: %v", p.url, err)
		}
	}
	if attempted {
		c.failedOver.Add(1) // the local pool is the final failover target
		chunkSpan.SetAttr("failed_over", "true")
	}
	c.local.Add(uint64(len(specs)))
	chunkSpan.SetAttr("executor", "local")
	lctx, localSpan := trace.StartSpan(ctx, "dispatch.local")
	res := batch.Local(lctx, specs)
	localSpan.End()
	return res
}

// ship executes one chunk on one peer. Any response that is not a
// complete, uncancelled answer to every spec is an error — partial
// results are never merged.
func (c *Coordinator) ship(ctx context.Context, p *peer, ref tapas.TaskRef, batch strategy.TaskBatch, specs []strategy.TaskSpec) (_ []strategy.TaskResult, err error) {
	ctx, span := trace.StartSpan(ctx, "dispatch.ship")
	span.SetAttr("peer", p.url)
	defer func() {
		span.SetError(err)
		span.End()
	}()
	actx, cancel := context.WithTimeout(ctx, c.taskTimeout)
	defer cancel()
	req := service.TaskRequest{
		SchemaVersion: service.SchemaVersion,
		Model:         ref.Model,
		Spec:          ref.Spec,
		GPUs:          ref.GPUs,
		ClusterSig:    cluster.V100GPUs(ref.GPUs).Signature(),
		W:             batch.Opt.W,
		AllowReshard:  batch.Opt.AllowReshard,
		TimeBudgetMS:  batch.Opt.TimeBudget.Milliseconds(),
		DeadlineMS:    c.taskTimeout.Milliseconds(),
		Instance:      batch.Instance,
		Tasks:         make([]service.TaskSpec, len(specs)),
	}
	for i, s := range specs {
		req.Tasks[i] = service.TaskSpec{Prefix: s.Prefix, Budget: s.Budget}
	}
	resp, err := p.client.Tasks(actx, req)
	if err != nil {
		return nil, err
	}
	if resp.SchemaVersion != service.SchemaVersion {
		return nil, fmt.Errorf("dispatch: peer answered schema %d, want %d", resp.SchemaVersion, service.SchemaVersion)
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("dispatch: peer answered %d results for %d tasks", len(resp.Results), len(specs))
	}
	out := make([]strategy.TaskResult, len(specs))
	for i, r := range resp.Results {
		if r.Canceled {
			return nil, fmt.Errorf("dispatch: peer cut task %d short", i)
		}
		out[i] = strategy.TaskResult{
			Candidates: r.Candidates,
			Stats: strategy.EnumStats{
				Examined:  r.Examined,
				Pruned:    r.Pruned,
				Truncated: r.Truncated,
				TimedOut:  r.TimedOut,
			},
		}
	}
	return out, nil
}
