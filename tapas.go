// Package tapas is the public entry point of the TAPAS reproduction: fast
// automatic derivation of tensor-parallel strategies for large neural
// networks (Shi et al., ICPP 2025).
//
// The pipeline mirrors Figure 2 of the paper:
//
//  1. a model's computational graph is converted to GraphNodes,
//  2. Apriori subgraph mining folds the search space to unique subgraphs,
//  3. sharding patterns are enumerated per subgraph with early stopping,
//  4. candidates are validated by symbolic shape checks,
//  5. survivors are ranked by the communication-based cost model, and
//  6. the winner is reconstructed into a per-device parallel graph
//     (Result.Parallel, built on demand).
//
// # Quick start
//
// The API is built around Engine: a reusable, concurrency-safe handle
// configured once with functional options, serving context-first,
// cancellable searches.
//
//	eng := tapas.NewEngine()
//	res, err := eng.Search(ctx, "t5-770M", 8)
//	if err != nil { ... }
//	fmt.Println(res.Strategy.Describe())
//	fmt.Println(res.Report)   // simulated iteration time, TFLOPS/GPU
//
// # Caching
//
// The Engine holds an LRU result cache keyed by (structural graph
// fingerprint, cluster signature, full option set). A repeated search for
// the same key returns the memoized Result in microseconds with CacheHit
// set; WithCache(n) sizes the cache and WithCache(0) disables it. Cached
// Results share their Strategy, plan document and per-device graph
// across hits — treat every Result handed out by the Engine as immutable.
//
// # Cancellation
//
// Every Engine method takes a context. Cancellation and deadlines
// propagate end-to-end — subgraph mining, per-class enumeration, the
// intra-class decision-tree split, assembly and repair — and the search
// returns promptly with an error wrapping the context's error. CLIs get
// ctrl-C handling by deriving the context with signal.NotifyContext, and
// per-request deadlines with context.WithTimeout.
//
// # Observability
//
// The cold pipeline is one ordered list of stages, and each signal is
// walked from it: a SearchSpec's Progress observer receives every
// phase's enter/exit events (group, mine, search, reconstruct, simulate)
// and per-class ticks; a traced context gets a span per stage; and
// Result.StageTimes lists each stage's duration, with search split into
// enum and assemble. Calls are serialized per search; concurrent
// searches each report to their own observer.
//
// # Determinism
//
// The search hot path is parallel: per-class enumerations (and the
// decision tree of a single large class) fan out across a bounded worker
// pool. WithWorkers selects the pool size — zero means GOMAXPROCS, 1
// forces the serial path — and the selected strategy is bit-identical for
// every worker count, so parallelism is purely a wall-clock optimization.
// (The exception is a search bounded by WithTimeBudget: what a deadline
// cuts off is timing-dependent, serial or parallel.)
//
// Engine.SearchAll is the batch entry point: it runs many (model,
// GPU-count) searches concurrently and returns results positionally, one
// per SearchSpec, with per-spec errors joined into the second return
// value.
//
//	specs := []tapas.SearchSpec{{Model: "t5-770M", GPUs: 8}, {Model: "moe-1.3B", GPUs: 16}}
//	results, err := eng.SearchAll(ctx, specs)
package tapas

import (
	"time"

	"tapas/internal/cluster"
	"tapas/internal/graph"
	"tapas/internal/models"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/store"
)

// Options are the per-search overrides of one SearchSpec, laid over the
// Engine's configuration for that search only (the serving layer's
// per-request options travel this way). Every field has a With*
// equivalent for configuring the Engine as a whole.
type Options struct {
	// Exhaustive disables subgraph folding (the TAPAS-ES configuration).
	Exhaustive bool
	// TimeBudget bounds exhaustive enumeration.
	TimeBudget time.Duration
	// Workers bounds the goroutines used by the parallel strategy search
	// (per-class fan-out plus intra-class decision-tree splitting). Zero
	// selects GOMAXPROCS; 1 forces the serial path. The resulting
	// strategy is identical for every value — see the package comment —
	// except under a TimeBudget, where deadline cuts are timing-dependent
	// at any worker count. Mining uses the same worker count.
	Workers int
}

// Result bundles everything a search produces.
//
// Result has no stable serialization of its own: Strategy and the graph
// Parallel builds are internal pointer graphs. Summary (also the
// MarshalJSON encoding) renders the wire-safe form; PlanDocument renders
// the full per-node plan as the versioned plan document the service
// package carries as PlanJSON. A cached Result renders that document
// once: every hit on the same cache entry shares the bytes.
//
// No search builds the per-device graph (the paper's Graph Reconstructor
// output): nothing in a search or a store hit reads it. The reconstruct
// stage counts its operators and collectives from the Strategy instead,
// into DeviceNodes and DeviceCollectives, which is all a wire response
// carries of it. Parallel materializes the graph on demand, once per
// cache entry.
type Result struct {
	ModelName string
	GPUs      int

	// Strategy is the selected parallel plan.
	Strategy *strategy.Strategy
	// Report is the simulated training iteration on the cluster.
	Report sim.Report
	// DeviceNodes and DeviceCollectives size the per-device graph
	// Parallel builds: its operator count (one fused compute operator
	// per GraphNode plus the collectives) and the collectives inserted
	// into it. They are computed from Strategy without building it.
	DeviceNodes, DeviceCollectives int

	// CacheHit reports that this Result was served from the Engine's
	// result cache: the timing fields below describe the original cold
	// computation, and Strategy (and the graph Parallel builds) are
	// shared with other hits for the same key (treat them as read-only).
	CacheHit bool
	// StoreHit reports that this Result was restored from the Engine's
	// persistent plan store (WithStore) instead of being computed by the
	// search pipeline: the plan was rehydrated, re-priced, counted and
	// re-simulated, and the timing fields describe the original cold
	// computation that produced the stored plan. A Result can carry both
	// flags — a store-restored Result re-served from the memory cache.
	StoreHit bool

	// Timing is the search-time breakdown (the paper's headline metric):
	// a duration per pipeline stage (see StageTimes), TotalTime, and the
	// counters, which are deterministic for a given (graph, options) pair
	// — worker counts only move the durations. The plan store persists it.
	store.Timing

	// memo memoizes PlanDocument and Parallel. The Engine installs it
	// when the Result enters its cache, so the cached copy, its hits and
	// joined followers share one rendering of each; a store hit and a
	// cold search persisted to the store bring one (the first holding
	// the stored plan bytes). nil renders on every call.
	memo *entryMemo
}

// ErrUnknownModel is returned (wrapped) by every entry point asked for
// a model name absent from the registry — Engine.Search,
// Engine.SearchSpec, SearchAll specs and BuildModel. Serving layers
// match it with errors.Is to answer "not found" instead of a generic
// failure.
var ErrUnknownModel = models.ErrUnknownModel

// Models lists the available model names.
func Models() []string { return models.Names() }

// BuildModel constructs a registered model's computational graph.
func BuildModel(name string) (*graph.Graph, error) { return models.Build(name) }

// NewCluster returns the paper-testbed preset with the given total GPU
// count (V100 SXM2 32 GB nodes of 8, joined by 100 Gbps Ethernet).
func NewCluster(gpus int) *cluster.Cluster { return cluster.V100GPUs(gpus) }

// SearchSpec names one search of a batch: a registered model (or a
// pre-built graph) and a GPU count, with optional per-search options.
type SearchSpec struct {
	// Model is a registered model name (see Models). Ignored when Graph
	// is set.
	Model string
	// Graph, when non-nil, is searched directly instead of building
	// Model — the path for custom graphio specs.
	Graph *graph.Graph
	// SpecText, when set alongside Graph, is the graphio source Graph
	// was parsed from. It gives a task-shipping engine (WithTaskRunner)
	// the wire form a remote executor needs to rebuild the graph; a
	// Graph without it always searches locally.
	SpecText string
	// GPUs is the total device count for this search.
	GPUs int
	// Options overrides the per-search options (nil = defaults). A zero
	// Options.Workers is resolved by SearchAll to an even share of
	// GOMAXPROCS across the batch, so the pools do not multiply; set it
	// explicitly only when one search should claim more than its share.
	Options *Options
	// Progress, when set, observes exactly this search's progress events
	// — never another concurrent caller's. It is the Engine's only
	// progress observer. Events of one search are serialized, though
	// they may come from any worker goroutine; the callback must return
	// quickly and must not call back into the Engine. Cache and store
	// hits skip the pipeline and emit nothing, and a call that joins an
	// identical in-flight search receives no events (the leader's does).
	Progress func(ProgressEvent)
}

// specName renders the model identity of a spec for error messages.
func specName(s SearchSpec) string {
	if s.Graph != nil {
		return s.Graph.Name
	}
	return s.Model
}

// Baselines enumerates the comparison planners accepted by
// Engine.Baseline.
func Baselines() []string {
	return []string{"dp", "deepspeed", "megatron", "ffn-only", "mha-only", "gshard", "alpa", "flexflow"}
}
