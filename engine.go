package tapas

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/parallel"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/internal/trace"
	"tapas/store"
)

// Engine is the reusable, concurrency-safe entry point of the TAPAS
// pipeline — the serving shape: construct one Engine per deployment,
// configure it once with functional options, and issue many concurrent,
// cancellable searches against it. It provides
//
//   - context-first methods: cancellation and deadlines propagate through
//     mining, per-class enumeration, prefix tasks and assembly down into
//     the worker pool;
//   - an LRU result cache keyed by (graph fingerprint, cluster signature,
//     options), so a repeated search returns in microseconds with
//     Result.CacheHit set;
//   - a per-search progress-event stream (SearchSpec.Progress) reporting
//     phase enter/exit, classes enumerated and candidates examined while
//     the search runs.
//
// The zero value is not usable; call NewEngine. Methods may be called
// concurrently from any number of goroutines. Results handed out by the
// Engine (including cache hits, which share Strategy pointers and
// memoized renderings with later hits) must be treated as immutable.
type Engine struct {
	base  engineConfig
	store *store.Store // persistent plan store (nil: not attached)

	mu       sync.Mutex // guards cache, inflight and stats
	cache    *lruCache
	inflight map[cacheKey]*flight // cold searches being computed right now
	stats    CacheStats           // Entries/Capacity are filled on read

	fpMu sync.Mutex
	memo map[string]*modelMemo // registered model name → what the engine keeps of it
}

// modelMemo is what an Engine keeps of one registered model: its
// structural fingerprint (the cache and store key) and, from the first
// store hit on, its grouped graph, which every later store hit of the
// model rehydrates against. Cold searches never use the grouped graph:
// they build and group a fresh one. The map is bounded by the registry.
type modelMemo struct {
	fp    string
	group sync.Once // sets gg, names and err
	gg    *ir.GNGraph
	names string // export.GraphNamesDigest(gg)
	err   error
}

// flight is one in-progress cold computation other callers can join.
type flight struct {
	done chan struct{} // closed after res/err are set
	res  *Result
	err  error
}

// engineConfig is the resolved per-search configuration. The Engine holds
// the instance configured at construction; a SearchSpec's Options are
// overlaid onto a copy per call, so every search funnels through the
// same pipeline and cache.
type engineConfig struct {
	cluster    *cluster.Cluster
	workers    int
	exhaustive bool
	timeBudget time.Duration
	// progress is the search's observer (SearchSpec.Progress): it
	// receives exactly this search's events, never another caller's.
	// Deliberately excluded from the cache key — observers never change
	// results.
	progress func(ProgressEvent)
	// runnerFor is the task-shipping factory (WithTaskRunner), consulted
	// per cold search. Like progress it is excluded from the cache key:
	// a scattered search is bit-identical to a local one.
	runnerFor func(TaskRef) strategy.TaskRunner
	// wireModel/wireSpec carry the search's wire identity — a registry
	// name or the graphio source text — so a task runner can tell remote
	// executors how to rebuild the graph. Both empty means the graph
	// exists only in this process and the search cannot be shipped.
	wireModel string
	wireSpec  string
}

// Option configures an Engine.
type Option func(*Engine)

// WithCluster pins every search to the given cluster instead of the
// default V100 testbed preset sized per call from the GPU count.
func WithCluster(cl *cluster.Cluster) Option {
	return func(e *Engine) { e.base.cluster = cl }
}

// WithWorkers bounds the goroutines of the parallel strategy search
// (0 = GOMAXPROCS, 1 = serial). The selected strategy is identical for
// every value; only wall-clock changes.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.base.workers = n }
}

// WithExhaustive selects exhaustive search (the TAPAS-ES configuration,
// no subgraph folding) for every search issued through the Engine.
func WithExhaustive(on bool) Option {
	return func(e *Engine) { e.base.exhaustive = on }
}

// WithTimeBudget bounds the enumeration phase of every search. For a
// per-request deadline prefer context.WithTimeout, which additionally
// covers mining, assembly and reconstruction.
func WithTimeBudget(d time.Duration) Option {
	return func(e *Engine) { e.base.timeBudget = d }
}

// WithCache sets the capacity of the result cache to n entries
// (least-recently-used eviction). n <= 0 disables caching entirely.
// The default is DefaultCacheSize.
func WithCache(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			e.cache = nil
			return
		}
		e.cache = newLRUCache(n)
	}
}

// TaskRef identifies one search's graph and device count to a remote
// task executor: a registered model name, or the graphio spec text for
// inline graphs. A zero Model and Spec means the graph exists only in
// this process and the search runs locally.
type TaskRef struct {
	// Model is the registry name (Engine.Search / SearchSpec.Model).
	Model string
	// Spec is the graphio source text (SearchSpec.SpecText).
	Spec string
	// GPUs is the search's device count.
	GPUs int
}

// WithTaskRunner installs a task-shipping factory, consulted once per
// cold search: when it returns a non-nil runner, the enumeration's
// prefix tasks are handed to it (see strategy.TaskRunner) instead of
// the in-process worker pool alone — the hook the distributed dispatch
// layer plugs into. The factory is only consulted for searches a remote
// executor can reproduce: a registered model or an inline spec, on the
// engine's default cluster; everything else runs locally. Runners never
// change results — a scattered search is bit-identical to serial — so
// the factory is excluded from the cache key, like progress observers.
func WithTaskRunner(f func(TaskRef) strategy.TaskRunner) Option {
	return func(e *Engine) { e.base.runnerFor = f }
}

// DefaultCacheSize is the result-cache capacity of a NewEngine without
// WithCache: comfortably the whole model zoo at a few GPU counts, yet
// bounded so a long-running server cannot grow without limit.
const DefaultCacheSize = 64

// NewEngine constructs an Engine with the given options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		cache:    newLRUCache(DefaultCacheSize),
		inflight: make(map[cacheKey]*flight),
		memo:     make(map[string]*modelMemo),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// CacheStats is a point-in-time snapshot of the result cache, for health
// endpoints and benchmark records. Hits counts requests answered from a
// stored entry, Joined counts requests that piggybacked on an identical
// in-flight computation, and Misses counts cold pipeline runs led on the
// cached path (with WithCache(0) nothing is counted).
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Joined   uint64 `json:"joined"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// CacheStats returns a snapshot of the result cache's traffic and size.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	if e.cache != nil {
		s.Entries = e.cache.ll.Len()
		s.Capacity = e.cache.cap
	}
	return s
}

// ProgressKind distinguishes the event types of a progress stream.
type ProgressKind int

const (
	// PhaseEnter marks the start of a pipeline phase.
	PhaseEnter ProgressKind = iota
	// PhaseProgress is a live tick inside a phase (per class enumerated).
	PhaseProgress
	// PhaseExit marks the end of a pipeline phase.
	PhaseExit
)

// String implements fmt.Stringer.
func (k ProgressKind) String() string {
	switch k {
	case PhaseEnter:
		return "enter"
	case PhaseProgress:
		return "progress"
	case PhaseExit:
		return "exit"
	default:
		return fmt.Sprintf("progresskind(%d)", int(k))
	}
}

// Phase names one stage of the search pipeline, in execution order.
type Phase string

const (
	// PhaseGroup converts the operator graph to GraphNodes.
	PhaseGroup Phase = "group"
	// PhaseMine runs Apriori subgraph mining and folding.
	PhaseMine Phase = "mine"
	// PhaseSearch enumerates candidates and assembles the global plan.
	PhaseSearch Phase = "search"
	// PhaseReconstruct sizes the per-device parallel graph (Result.Parallel
	// materializes it on demand).
	PhaseReconstruct Phase = "reconstruct"
	// PhaseSimulate prices the winner on the simulated testbed.
	PhaseSimulate Phase = "simulate"
)

// coldStages is the cold search pipeline (Fig. 2 of the paper) in
// execution order: each phase, followed by the parts its work times
// itself (the strategy layer splits search into enum and assemble).
// runSearch walks it for each phase's progress events, spans and
// durations; StageTimes walks it for the serving layer's phase
// histograms and slow-request log.
var coldStages = []coldStage{
	{name: string(PhaseGroup), dur: func(r *Result) *time.Duration { return &r.GroupTime }, run: (*coldRun).group},
	{name: string(PhaseMine), dur: func(r *Result) *time.Duration { return &r.MineTime }, run: (*coldRun).mine, foldedOnly: true,
		attrs: func(r *Result) []string {
			return []string{"levels", strconv.Itoa(r.MineLevels), "classes", strconv.Itoa(r.UniqueGraphs)}
		}},
	{name: string(PhaseSearch), dur: func(r *Result) *time.Duration { return &r.SearchTime }, run: (*coldRun).search, parts: 2},
	{name: "enum", dur: func(r *Result) *time.Duration { return &r.EnumTime },
		attrs: func(r *Result) []string {
			return []string{"classes", strconv.Itoa(r.Classes), "examined", strconv.Itoa(r.Examined), "pruned", strconv.Itoa(r.Pruned)}
		}},
	{name: "assemble", dur: func(r *Result) *time.Duration { return &r.AssembleTime }},
	{name: string(PhaseReconstruct), dur: func(r *Result) *time.Duration { return &r.ReconstructTime }, run: (*coldRun).reconstruct},
	{name: string(PhaseSimulate), dur: func(r *Result) *time.Duration { return &r.SimulateTime }, run: (*coldRun).simulate},
}

// coldStage is one entry of coldStages. Its name is its span's name
// and, for a phase, its Phase.
type coldStage struct {
	name       string
	dur        func(*Result) *time.Duration // where its duration is kept
	attrs      func(*Result) []string       // its span's attributes (nil: none)
	run        func(*coldRun) error         // a phase's work (nil: a part)
	parts      int                          // entries after the phase that its work times
	foldedOnly bool                         // an exhaustive search skips the phase
}

// StageTimes calls f with each stage of the cold pipeline, in execution
// order, and the time r's cold computation spent in it: group, mine,
// search, enum, assemble, reconstruct, simulate (enum and assemble are
// the two parts of search). A stage that did not run reports zero.
func (r *Result) StageTimes(f func(stage string, d time.Duration)) {
	for _, st := range coldStages {
		f(st.name, *st.dur(r))
	}
}

// ProgressEvent is one observation of a running search, delivered to
// that search's SearchSpec.Progress observer. Counter fields are
// cumulative within one search: each event carries the counts reached
// so far (the search phase's ticks advance them).
type ProgressEvent struct {
	Model string // model identity (graph name for SearchGraph)
	GPUs  int
	Phase Phase
	Kind  ProgressKind

	ClassesDone  int // per-class enumerations finished
	ClassesTotal int // unique subgraph classes being searched
	Examined     int // complete strategies examined so far

	Elapsed time.Duration // since this search started
}

// ---------------------------------------------------------------------------
// Public context-first API

// Search runs the full TAPAS pipeline on a registered model.
func (e *Engine) Search(ctx context.Context, modelName string, gpus int) (*Result, error) {
	return e.searchModel(ctx, modelName, gpus, e.base)
}

// searchModel is Search with an explicit config. Once a model is
// memoized, neither a cache hit nor a store hit builds its graph or
// hashes it — the true serving fast path; computeSearch builds the
// graph only when a cold search must run.
func (e *Engine) searchModel(ctx context.Context, modelName string, gpus int, cfg engineConfig) (*Result, error) {
	cfg.wireModel = modelName // registry names are reproducible anywhere
	e.fpMu.Lock()
	m, known := e.memo[modelName]
	e.fpMu.Unlock()
	if known {
		key := e.searchKey(m.fp, gpus, cfg)
		return e.doCached(ctx, key, modelName, func() (*Result, error) {
			return e.computeSearch(ctx, key, modelName, nil, gpus, cfg)
		})
	}
	g, err := models.Build(modelName)
	if err != nil {
		return nil, err
	}
	fp := g.Fingerprint()
	e.fpMu.Lock()
	if _, ok := e.memo[modelName]; !ok {
		e.memo[modelName] = &modelMemo{fp: fp}
	}
	e.fpMu.Unlock()
	return e.searchGraph(ctx, modelName, g, fp, gpus, cfg)
}

// SearchGraph runs the full TAPAS pipeline on an arbitrary computational
// graph.
//
// Note the cache is keyed by the structural fingerprint, not graph
// identity: a hit returns the Strategy built over the first
// structurally-equal graph searched, so correlate results through the
// returned Strategy.Graph rather than the nodes of the argument graph.
// (This also holds for registered models: Search builds a model's graph
// for its first call and for cold searches only, and store hits share
// one grouped graph per model and engine.)
func (e *Engine) SearchGraph(ctx context.Context, g *graph.Graph, gpus int) (*Result, error) {
	return e.searchGraph(ctx, g.Name, g, g.Fingerprint(), gpus, e.base)
}

// Baseline derives a plan with one of the paper's comparison systems
// (see Baselines) and simulates it on the engine's cluster.
func (e *Engine) Baseline(ctx context.Context, name, modelName string, gpus int) (*Result, error) {
	g, err := models.Build(modelName)
	if err != nil {
		return nil, err
	}
	return e.baselineGraph(ctx, name, modelName, g, gpus)
}

// searchKey builds the cache key identifying one search configuration.
func (e *Engine) searchKey(fp string, gpus int, cfg engineConfig) cacheKey {
	cl, model, enum, mopt := cfg.resolve(gpus)
	return cacheKey{
		kind:    "search",
		graph:   fp,
		gpus:    gpus,
		cluster: cl.Signature(),
		options: optionsSignature(model, enum, mopt, cfg.exhaustive),
	}
}

// BaselineGraph is Baseline for an arbitrary graph.
func (e *Engine) BaselineGraph(ctx context.Context, name string, g *graph.Graph, gpus int) (*Result, error) {
	return e.baselineGraph(ctx, name, g.Name, g, gpus)
}

// SearchSpec runs one spec through the full cached pipeline, honoring the
// spec's per-call Options overlaid on the engine configuration. It is the
// per-request entry point of the serving layer: unlike SearchAll (which
// wraps errors with batch positions), a SearchSpec call returns the
// search's own error, and is keyed, deduplicated and cached exactly like
// Engine.Search.
func (e *Engine) SearchSpec(ctx context.Context, spec SearchSpec) (*Result, error) {
	return e.searchSpec(ctx, spec, 0)
}

// searchSpec resolves one spec's configuration and runs it. workers is
// the pool size a spec that names none gets (0: the engine's own).
func (e *Engine) searchSpec(ctx context.Context, spec SearchSpec, workers int) (*Result, error) {
	cfg := e.base
	if spec.Options != nil {
		cfg = e.base.overlay(*spec.Options)
	}
	cfg.progress = spec.Progress
	if cfg.workers == 0 {
		cfg.workers = workers
	}
	if spec.Graph != nil {
		cfg.wireSpec = spec.SpecText
		return e.searchGraph(ctx, spec.Graph.Name, spec.Graph, spec.Graph.Fingerprint(), spec.GPUs, cfg)
	}
	return e.searchModel(ctx, spec.Model, spec.GPUs, cfg)
}

// SearchAll runs many searches concurrently across a bounded worker pool
// — the serving shape for a fleet of (model, cluster) configurations. The
// returned slice is positional: results[i] answers specs[i] and is nil
// exactly when that spec failed. The error joins every per-spec failure
// (nil when all succeed); one failing spec never aborts the others, but
// cancelling ctx aborts them all. Each individual search is
// deterministic, so a batch run returns exactly what sequential Search
// calls would have.
func (e *Engine) SearchAll(ctx context.Context, specs []SearchSpec) ([]*Result, error) {
	// Each search's inner pool defaults to an even share of the machine:
	// batch-level concurrency × per-search workers ≈ GOMAXPROCS, rather
	// than GOMAXPROCS². Worker counts never affect results, only pacing.
	share := parallel.Workers(0) / max(1, len(specs))
	results, errs := parallel.MapAll(ctx, 0, specs,
		func(ctx context.Context, i int, spec SearchSpec) (*Result, error) {
			return e.searchSpec(ctx, spec, max(1, share))
		})
	for i, err := range errs {
		// A cancelled batch can skip specs before they start: they have
		// neither a result nor an error, so charge them to the context.
		if err == nil && results[i] == nil && ctx.Err() != nil {
			err = ctx.Err()
			errs[i] = err
		}
		if err != nil {
			errs[i] = &SpecError{Index: i, Model: specName(specs[i]), GPUs: specs[i].GPUs, Err: err}
		}
	}
	return results, errors.Join(errs...)
}

// SpecError attributes one failed spec of a SearchAll batch. The joined
// error SearchAll returns unwraps into these, so batch callers (e.g.
// the serving layer's batch endpoint) can map failures back to their
// positional spec with errors.As instead of parsing messages.
type SpecError struct {
	// Index is the spec's position in the batch.
	Index int
	// Model is the spec's model identity (registry name or graph name).
	Model string
	// GPUs is the spec's device count.
	GPUs int
	// Err is the underlying search failure.
	Err error
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("tapas: spec %d (%s on %d GPUs): %v", e.Index, e.Model, e.GPUs, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *SpecError) Unwrap() error { return e.Err }

// ---------------------------------------------------------------------------
// Pipeline

// resolve fills the per-call defaults that depend on the GPU count: the
// paper's cost model, enumeration budgets and mining thresholds, with
// the call's time budget and worker count laid over them.
func (cfg engineConfig) resolve(gpus int) (cl *cluster.Cluster, model *cost.Model, enum strategy.EnumOptions, mopt mining.Options) {
	cl = cfg.cluster
	if cl == nil {
		cl = cluster.V100GPUs(gpus)
	}
	enum = strategy.DefaultEnumOptions(gpus)
	if cfg.timeBudget > 0 {
		enum.TimeBudget = cfg.timeBudget
	}
	enum.Workers = cfg.workers
	mopt = mining.DefaultOptions()
	// Mining shares the search worker budget. Worker counts never change
	// results (the mining merge is order-stable), so they stay out of
	// optionsSignature.
	mopt.Workers = enum.Workers
	return cl, cost.Default(cl), enum, mopt
}

// overlay applies a SearchSpec's per-call Options on top of the engine
// configuration.
func (cfg engineConfig) overlay(opt Options) engineConfig {
	out := cfg
	if opt.Exhaustive {
		out.exhaustive = true
	}
	if opt.TimeBudget > 0 {
		out.timeBudget = opt.TimeBudget
	}
	if opt.Workers != 0 {
		out.workers = opt.Workers
	}
	return out
}

// searchGraph keys, deduplicates and caches one search over an in-hand
// graph whose structural fingerprint is fp; the pipeline itself lives in
// runSearch.
func (e *Engine) searchGraph(ctx context.Context, name string, g *graph.Graph, fp string, gpus int, cfg engineConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tapas: search aborted: %w", err)
	}
	key := e.searchKey(fp, gpus, cfg)
	return e.doCached(ctx, key, name, func() (*Result, error) {
		return e.computeSearch(ctx, key, name, g, gpus, cfg)
	})
}

// runSearch is the full cold pipeline behind Search/SearchGraph/SearchAll.
// name is the caller-facing model identity (a registry name or the graph
// name); it must be fixed here, before the Result is published to the
// cache, because published Results are shared and must never be written.
func (e *Engine) runSearch(ctx context.Context, name string, g *graph.Graph, gpus int, cfg engineConfig) (*Result, error) {
	r := &coldRun{cfg: cfg, g: g, res: &Result{GPUs: gpus, ModelName: name}}
	r.cl, r.model, r.enum, r.mopt = cfg.resolve(gpus)

	// Task shipping: only searches a remote executor can reproduce are
	// scattered — a wire-identifiable graph on the default cluster (a
	// preset the peer resolves from the GPU count alone). Anything else
	// keeps Runner nil and runs on the local pool; either way the
	// selected strategy is identical.
	if cfg.runnerFor != nil && cfg.cluster == nil &&
		(cfg.wireModel != "" || cfg.wireSpec != "") {
		r.enum.Runner = cfg.runnerFor(TaskRef{Model: cfg.wireModel, Spec: cfg.wireSpec, GPUs: gpus})
	}

	r.start = time.Now()
	r.enum.Progress = func(done, total, examined int) {
		r.emit(PhaseProgress, PhaseSearch, ProgressEvent{ClassesDone: done, ClassesTotal: total, Examined: examined})
	}

	// Span per phase, mirroring the progress stream. Spans are nil (and
	// every call a no-op) unless the caller's context carries a sampled
	// trace; they never feed back into the search, so traced and
	// untraced runs are bit-identical.
	ctx, searchSpan := trace.StartSpan(ctx, "engine.search")
	searchSpan.SetAttr("model", name)
	searchSpan.SetAttr("gpus", strconv.Itoa(gpus))
	defer searchSpan.End()
	r.ctx = ctx

	for i := range coldStages {
		if err := r.runStage(i); err != nil {
			searchSpan.SetError(err)
			return nil, err
		}
	}
	r.res.TotalTime = time.Since(r.start)
	return r.res, nil
}

// coldRun is the state one cold search carries through coldStages.
type coldRun struct {
	ctx   context.Context
	cfg   engineConfig
	cl    *cluster.Cluster
	model *cost.Model
	enum  strategy.EnumOptions
	mopt  mining.Options
	start time.Time
	res   *Result

	// progMu serializes the search's events, which may come from any
	// worker goroutine; counts holds the counters phase events carry.
	progMu sync.Mutex
	counts ProgressEvent

	g       *graph.Graph
	gg      *ir.GNGraph
	classes []*mining.Class
}

// runStage runs the phase coldStages[i] between its enter and exit
// events, keeps its duration unless its work times its parts, and
// records its span, or its parts' spans back to back from its start.
func (r *coldRun) runStage(i int) error {
	st := &coldStages[i]
	if st.run == nil || st.foldedOnly && r.cfg.exhaustive {
		return nil // a part, recorded with its phase, or a skipped phase
	}
	r.emit(PhaseEnter, Phase(st.name), r.counts)
	start := time.Now()
	if err := st.run(r); err != nil {
		return fmt.Errorf("tapas: %s phase failed: %w", st.name, err)
	}
	spans := coldStages[i : i+1]
	if st.parts > 0 {
		spans = coldStages[i+1 : i+1+st.parts]
	} else {
		*st.dur(r.res) = time.Since(start)
	}
	for _, sp := range spans {
		var attrs []string
		if sp.attrs != nil {
			attrs = sp.attrs(r.res)
		}
		trace.Record(r.ctx, sp.name, start, *sp.dur(r.res), attrs...)
		start = start.Add(*sp.dur(r.res))
	}
	r.emit(PhaseExit, Phase(st.name), r.counts)
	return nil
}

// emit stamps one event and hands it to the search's observer.
func (r *coldRun) emit(kind ProgressKind, phase Phase, ev ProgressEvent) {
	if r.cfg.progress == nil {
		return
	}
	ev.Kind, ev.Phase = kind, phase
	ev.Model, ev.GPUs, ev.Elapsed = r.res.ModelName, r.res.GPUs, time.Since(r.start)
	r.progMu.Lock()
	defer r.progMu.Unlock()
	r.cfg.progress(ev)
}

func (r *coldRun) group() (err error) {
	r.gg, err = ir.Group(r.g)
	return err
}

func (r *coldRun) mine() error {
	mres := mining.Mine(r.ctx, r.gg, r.mopt)
	r.classes = mining.Fold(r.gg, mres)
	r.res.MineLevels, r.res.UniqueGraphs = mres.Levels, len(r.classes)
	r.counts.ClassesTotal = len(r.classes)
	return r.ctx.Err()
}

func (r *coldRun) search() (err error) {
	var stats *strategy.SearchStats
	if r.cfg.exhaustive {
		r.enum.MaxCandidates = max(r.enum.MaxCandidates, 1<<15)
		r.res.Strategy, stats, err = strategy.SearchExhaustive(r.ctx, r.gg, r.model, r.enum, r.cl.MemoryPerGP)
		r.res.UniqueGraphs = len(r.gg.Nodes)
	} else {
		r.res.Strategy, stats, err = strategy.SearchFolded(r.ctx, r.gg, r.classes, r.model, r.enum, r.cl.MemoryPerGP)
	}
	if err != nil {
		return err
	}
	r.res.EnumTime, r.res.AssembleTime = stats.EnumTime, stats.AssembleTime
	r.res.SearchTime = stats.EnumTime + stats.AssembleTime
	r.res.Classes, r.res.Examined, r.res.Pruned = stats.Classes, stats.Examined, stats.Pruned
	r.counts = ProgressEvent{ClassesDone: stats.Classes, ClassesTotal: stats.Classes, Examined: stats.Examined}
	return nil
}

// reconstruct sizes the per-device graph without building it (see
// Result.Parallel): its counts are all the pipeline keeps of it.
func (r *coldRun) reconstruct() (err error) {
	r.res.DeviceNodes, r.res.DeviceCollectives, err = reconstruct.Count(r.res.Strategy)
	return err
}

func (r *coldRun) simulate() error {
	r.res.Report = sim.Run(r.res.Strategy, sim.DefaultConfig(r.cl))
	return nil
}

// baselineGraph keys, deduplicates and caches one baseline derivation;
// the planner dispatch lives in runBaseline.
func (e *Engine) baselineGraph(ctx context.Context, name, modelName string, g *graph.Graph, gpus int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tapas: baseline aborted: %w", err)
	}
	key := e.searchKey(g.Fingerprint(), gpus, e.base)
	key.kind = "baseline:" + name
	return e.doCached(ctx, key, modelName, func() (*Result, error) {
		return e.runBaseline(ctx, name, modelName, g, gpus)
	})
}

// runBaseline derives and simulates one comparison plan. modelName is
// the caller-facing model identity, fixed before the Result is published
// to the cache (published Results are shared and never written).
func (e *Engine) runBaseline(ctx context.Context, name, modelName string, g *graph.Graph, gpus int) (*Result, error) {
	cl, model, _, _ := e.base.resolve(gpus)

	res := &Result{GPUs: gpus, ModelName: modelName}
	start := time.Now()
	gg, err := ir.Group(g)
	if err != nil {
		return nil, err
	}

	var s *strategy.Strategy
	switch name {
	case "dp", "data-parallel":
		s, err = baselines.DataParallel(gg, gpus, model)
	case "deepspeed", "zero2":
		s, err = baselines.DeepSpeed(gg, gpus, model)
	case "megatron":
		s, err = baselines.Megatron(gg, gpus, model)
	case "ffn-only":
		s, err = baselines.FFNOnly(gg, gpus, model)
	case "mha-only":
		s, err = baselines.MHAOnly(gg, gpus, model)
	case "gshard":
		s, err = baselines.GShardExpert(gg, gpus, model)
	case "alpa":
		var stats *baselines.AlpaStats
		aopt := baselines.DefaultAlpaOptions()
		if e.base.timeBudget > 0 {
			aopt.TimeBudget = e.base.timeBudget
		}
		s, stats, err = baselines.AlpaSearch(ctx, gg, gpus, model, aopt)
		if stats != nil {
			res.SearchTime = stats.Elapsed
			res.Examined = stats.Examined
		}
	case "flexflow":
		var stats *baselines.FlexFlowStats
		s, stats, err = baselines.FlexFlowSearch(ctx, gg, gpus, model, baselines.DefaultFlexFlowOptions())
		if stats != nil {
			res.SearchTime = stats.Elapsed
			res.Examined = stats.Proposals
		}
	default:
		return nil, fmt.Errorf("tapas: unknown baseline %q (available: %v)", name, Baselines())
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("tapas: baseline %s canceled: %w", name, cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("tapas: baseline %s failed: %w", name, err)
	}

	res.Strategy = s
	if res.DeviceNodes, res.DeviceCollectives, err = reconstruct.Count(s); err != nil {
		return nil, fmt.Errorf("tapas: baseline %s failed: %w", name, err)
	}
	res.Report = sim.Run(s, sim.DefaultConfig(cl))
	res.TotalTime = time.Since(start)
	return res, nil
}

// ---------------------------------------------------------------------------
// Result cache

// cacheKey identifies one search outcome. Every field that can change the
// Result participates: the structural graph fingerprint, the GPU count,
// the cluster signature, and the full option set. The worker count is
// deliberately excluded — results are bit-identical for every worker
// count (the equivalence suite enforces it on WithCache(0) engines), so
// single-call and batch traffic share entries even though SearchAll
// rewrites per-spec worker shares.
type cacheKey struct {
	kind    string // "search" or "baseline:<name>"
	graph   string
	gpus    int
	cluster string
	options string
}

// optionsSignature renders the cost model, enumeration budgets and mining
// thresholds into a canonical string.
func optionsSignature(m *cost.Model, enum strategy.EnumOptions, mopt mining.Options, exhaustive bool) string {
	var b strings.Builder
	// The model's embedded cluster prices every collective. It equals the
	// resolved search cluster, but stays in the signature: dropping it
	// would change every stored plan's content address.
	if m.Cluster != nil {
		b.WriteString("mcl(" + m.Cluster.Signature() + "):")
	}
	fmt.Fprintf(&b, "cf%v:g%g:ic%v:u%g:eps(", m.ConstantFilter, m.Gamma, m.IncludeCompute, m.Utilization)
	kinds := make([]int, 0, len(m.Epsilon))
	for k := range m.Epsilon {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "%d=%g,", k, m.Epsilon[comm.Kind(k)])
	}
	// mp0 is a literal: the search has no memory-penalty option, but
	// dropping the field would move every stored plan's content address.
	fmt.Fprintf(&b, "):w%d:mc%d:k%d:ar%v:mp0:ds%v:tb%d:ex%v",
		enum.W, enum.MaxCandidates, enum.TopK, enum.AllowReshard,
		enum.DisableSeeds, enum.TimeBudget, exhaustive)
	fmt.Fprintf(&b, ":ms%d:mz%d:mx%d:mi%d:ml%d",
		mopt.MinSupport, mopt.MinSize, mopt.MaxSize, mopt.MaxInstancesPerPattern, mopt.MaxPatternsPerLevel)
	return b.String()
}

// lruCache is a minimal LRU map used under the Engine's mutex.
type lruCache struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	res *Result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

func (c *lruCache) get(k cacheKey) (*Result, bool) {
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lruCache) put(k cacheKey, r *Result) {
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).res = r
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry{key: k, res: r})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// doCached serves one keyed computation through the cache and the
// in-flight table:
//
//   - a cached key returns a private shallow copy with CacheHit set and
//     ModelName set to the caller's name for the model — the name is not
//     part of the key (the heavy Strategy and memoized structures stay
//     shared and must be treated as read-only);
//   - a key already being computed is joined, not recomputed — a burst of
//     identical cold requests (the serving shape) costs one pipeline run,
//     with followers woken by the leader and handed hit-copies;
//   - otherwise the caller becomes the leader and runs compute. The cache
//     stores a private shallow copy, so a cold-path caller that writes a
//     field of the Result it was handed cannot corrupt later hits. The
//     leader's Result, the cached copy and every hit on it share one memo
//     (see Result.PlanDocument and Result.Parallel), installed before the
//     result is published: the one compute brought when it did (a store
//     hit's stored plan bytes, or the plan a persisted cold search
//     rendered), a fresh one otherwise.
//
// With caching disabled (WithCache(0)) every call computes independently.
func (e *Engine) doCached(ctx context.Context, key cacheKey, name string, compute func() (*Result, error)) (*Result, error) {
	hit := func(shared *Result) *Result {
		res := *shared
		res.CacheHit = true
		res.ModelName = name
		return &res
	}
	for {
		e.mu.Lock()
		if e.cache == nil {
			e.mu.Unlock()
			return compute()
		}
		if cached, ok := e.cache.get(key); ok {
			e.stats.Hits++
			e.mu.Unlock()
			trace.Record(ctx, "cache", time.Now(), 0, "outcome", "hit")
			return hit(cached), nil
		}
		f, running := e.inflight[key]
		if !running {
			f = &flight{done: make(chan struct{})}
			e.inflight[key] = f
			e.stats.Misses++
			e.mu.Unlock()

			// The deferred cleanup must run even if compute panics:
			// otherwise the dead flight would block every later caller of
			// this key forever. On panic the followers get an error and
			// the panic propagates to the leader's caller.
			var (
				res       *Result
				err       error
				completed bool
			)
			func() {
				defer func() {
					e.mu.Lock()
					delete(e.inflight, key)
					if completed && err == nil && e.cache != nil {
						if res.memo == nil { // a store hit or a persisted search brings its own
							res.memo = new(entryMemo)
						}
						stored := *res
						e.cache.put(key, &stored)
					}
					e.mu.Unlock()
					if completed {
						f.res, f.err = res, err
					} else {
						f.err = errors.New("tapas: search panicked")
					}
					close(f.done)
				}()
				res, err = compute()
				completed = true
			}()
			return res, err
		}
		e.mu.Unlock()

		select {
		case <-f.done:
			if f.err != nil {
				// The leader's context failure is its own — ours may be
				// alive, so retry (becoming the new leader if needed).
				// Genuine search failures are deterministic: share them.
				if (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue
				}
				return nil, f.err
			}
			e.mu.Lock()
			e.stats.Joined++
			e.mu.Unlock()
			trace.Record(ctx, "cache", time.Now(), 0, "outcome", "joined")
			return hit(f.res), nil
		case <-ctx.Done():
			return nil, fmt.Errorf("tapas: search aborted: %w", ctx.Err())
		}
	}
}
