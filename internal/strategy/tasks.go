package strategy

import (
	"context"
	"fmt"

	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/parallel"
)

// This file is the task-shipping seam of the enumeration: the wire-
// portable form of a prefix task (TaskSpec), its result (TaskResult),
// the contract a distributed runner implements (TaskRunner), and the
// executor (ExecuteTasks) a remote daemon uses to run shipped tasks
// against its own copy of the graph.
//
// The encoding is menu indices. Pattern menus are built and ordered
// deterministically per (node, W, cost model) — see
// newEnumShared — so "pattern j of node i's menu" names the same
// pattern on every machine holding the same graph, and a candidate is
// just one index per node. It is the walk's own encoding too: every arm
// of EnumerateInstance records complete assignments as menu indices in a
// pointer-free arena, an executor reads TaskResult.Candidates straight
// off it, and the coordinator appends the rebuilt results to the same
// kind of arena; only the assignments ranking keeps are ever
// materialised as *Candidate. Everything float-valued (events, memory,
// cost) is recomputed from the indices on the receiving side, never
// parsed off the wire, which is what keeps the scattered search
// bit-identical to the single-process one.

// TaskSpec is one unit of split enumeration work, in the form the wire
// carries and the pool walks alike: the assignment prefix as menu indices
// (Prefix[d] selects the d-th node's menu entry) plus the candidate
// budget the serial search grants the subtree under it.
type TaskSpec struct {
	Prefix []int
	Budget int
}

// TaskResult is the wire form of one executed prefix task: every
// complete assignment found under the prefix, as one menu index per
// instance node, listed in serial depth-first order, plus the effort
// counters the subtree accumulated.
type TaskResult struct {
	Candidates [][]int
	Stats      EnumStats
}

// TaskBatch hands a TaskRunner everything needed to execute one
// enumeration's prefix tasks elsewhere and merge the results as if they
// had run in-process.
type TaskBatch struct {
	// Instance is the subgraph instance as GraphNode IDs in assignment
	// (topological) order; an executor holding the same graph resolves
	// the same nodes by ID, with no mining of its own.
	Instance []int
	// Opt is the effective enumeration options (Progress and Runner
	// cleared). Only W, AllowReshard and TimeBudget affect task
	// execution — budgets travel inside each TaskSpec.
	Opt EnumOptions
	// Tasks are the prefix tasks in serial depth-first visit order;
	// concatenating their candidate lists in this order reproduces the
	// serial enumeration exactly.
	Tasks []TaskSpec
	// Local executes a subset of the batch's tasks in-process against
	// the originating enumeration context — the runner's fallback when
	// no peer can take a task. Results are positional with tasks.
	Local func(ctx context.Context, tasks []TaskSpec) []TaskResult
}

// TaskRunner executes a batch of prefix tasks somewhere — a fleet of
// remote daemons, another process, or just the local pool. It is the
// hook EnumOptions.Runner plugs into.
type TaskRunner interface {
	// RunTasks executes every task of the batch and returns results
	// positional with batch.Tasks. Implementations may ship tasks
	// anywhere but the combined results must equal what batch.Local
	// would produce (a missing or malformed result is recomputed
	// locally, so a misbehaving peer costs time, never correctness). A
	// non-nil error (normally ctx's) aborts the enumeration as canceled.
	RunTasks(ctx context.Context, batch TaskBatch) ([]TaskResult, error)
	// Fanout hints how many prefix tasks the enumeration should split
	// into — typically a small multiple of the fleet's total worker
	// count. Values below the local default (4× local workers) are
	// ignored.
	Fanout() int
}

// split is the split arm of EnumerateInstance: split the tree into
// prefix tasks, ship them to the runner as a wire batch when there is
// one, walk on the pool every task the runner did not answer, and merge
// the records in task order. A runner's answers are replayed and priced
// on st. A task it did not deliver, or delivered cut short or malformed,
// is walked in-process like every task of a run without a runner, through
// the leaf filter when filter is set, so the merged output never depends
// on runner behavior. Wire results record every leaf: a TaskSpec carries
// no TopK.
func (st *enumState) split(workers int, filter bool) (records, EnumStats) {
	sh := st.enumShared
	ctx, runner := sh.ctx, sh.opt.Runner
	target := 4 * workers
	if runner != nil {
		target = max(target, runner.Fanout())
	}
	tasks, stats := splitTasks(sh, target)
	var results []TaskResult
	if runner != nil {
		ids := make([]int, len(sh.instance))
		for i, gn := range sh.instance {
			ids[i] = gn.ID
		}
		opt := sh.opt
		opt.Progress, opt.Runner = nil, nil
		batch := TaskBatch{
			Instance: ids,
			Opt:      opt,
			Tasks:    tasks,
			Local: func(lctx context.Context, ts []TaskSpec) []TaskResult {
				res, _ := runTasks(lctx, sh, workers, ts)
				return res
			},
		}
		var err error
		if results, err = runner.RunTasks(ctx, batch); err != nil {
			stats.Canceled = true
			return records{}, stats
		}
	}
	parts := make([]records, len(tasks))
	var todo []int
	for i := range tasks {
		// A result cut short by a remote cancellation is partial: its
		// subtree was not fully walked, so merging it would diverge from
		// serial. Walk it like a missing result.
		if i < len(results) && !results[i].Stats.Canceled {
			if recs, err := st.rebuild(results[i]); err == nil {
				parts[i] = recs
				stats.merge(results[i].Stats)
				continue
			}
		}
		todo = append(todo, i)
	}
	walked, _ := parallel.Map(ctx, workers, todo, func(tctx context.Context, _ int, i int) (*enumState, error) {
		ws, err := sh.walk(tctx, tasks[i], filter)
		if err != nil {
			panic(err) // splitTasks made a task its own checks reject
		}
		return ws, nil
	})
	for k, ws := range walked {
		if ws != nil { // nil: skipped by cancellation
			parts[todo[k]] = ws.out
			stats.merge(ws.stats)
		}
	}
	n := seedCount
	for _, p := range parts {
		n += p.len()
	}
	out := sh.newRecords(n)
	for _, p := range parts {
		out.merge(p)
	}
	return out, stats
}

// rebuild records one wire result's assignments, replaying each against
// the menus and pricing it locally — byte-precision floats never cross
// the wire, so the records are exactly what complete() would have
// produced in-process. The scratch state's stats are untouched: the
// executor already accounted this subtree's effort in TaskResult.Stats.
func (st *enumState) rebuild(r TaskResult) (records, error) {
	out := st.newRecords(len(r.Candidates))
	for _, idx := range r.Candidates {
		if len(idx) != len(st.instance) {
			return records{}, fmt.Errorf("strategy: candidate of %d indices for instance of %d", len(idx), len(st.instance))
		}
		if err := replayPrefix(st, idx); err != nil {
			return records{}, err
		}
		out.add(st.mi, st.price())
	}
	return out, nil
}

// ExecuteTasks runs shipped prefix tasks against a local copy of the
// graph: the instance is resolved by GraphNode ID (ir.Group numbers the
// nodes by their index in g.Nodes), the enumeration
// context (menus included) is rebuilt exactly as the coordinator built
// it, and every task's subtree is walked by the budgeted dfs across a
// bounded worker pool (opt.Workers, 0 = GOMAXPROCS). It is the engine
// behind a daemon's POST /v1/tasks endpoint.
//
// An unknown instance ID or an inconsistent task prefix fails the whole
// batch — shipped garbage is a caller bug, never silently partial.
// Cancellation of ctx is reported per-result via Stats.Canceled; the
// caller must check ctx before trusting the results.
func ExecuteTasks(ctx context.Context, g *ir.GNGraph, instanceIDs []int, model *cost.Model, opt EnumOptions, tasks []TaskSpec) ([]TaskResult, error) {
	if len(instanceIDs) == 0 {
		return nil, fmt.Errorf("strategy: empty task instance")
	}
	instance := make([]*ir.GraphNode, len(instanceIDs))
	for i, id := range instanceIDs {
		if id < 0 || id >= len(g.Nodes) {
			return nil, fmt.Errorf("strategy: instance node id %d not in graph", id)
		}
		instance[i] = g.Nodes[id]
	}
	opt.Progress, opt.Runner = nil, nil
	sh := newEnumShared(ctx, g, instance, model, opt)
	return runTasks(ctx, sh, parallel.Workers(opt.Workers), tasks)
}

// runTasks executes tasks across a bounded pool and reads each result's
// candidates straight off its walk's record arena. The first invalid task
// aborts the batch; cancellation instead lands in the per-result stats.
func runTasks(ctx context.Context, sh *enumShared, workers int, tasks []TaskSpec) ([]TaskResult, error) {
	n := len(sh.instance)
	return parallel.Map(ctx, workers, tasks, func(tctx context.Context, _ int, t TaskSpec) (TaskResult, error) {
		st, err := sh.walk(tctx, t, false)
		if err != nil {
			return TaskResult{}, err
		}
		res := TaskResult{Stats: st.stats}
		if k := st.out.len(); k > 0 {
			flat := make([]int, len(st.out.idx))
			for j, mi := range st.out.idx {
				flat[j] = int(mi)
			}
			res.Candidates = make([][]int, k)
			for j := range res.Candidates {
				res.Candidates[j] = flat[j*n : (j+1)*n : (j+1)*n]
			}
		}
		return res, nil
	})
}

// walk is the one walker of a task's subtree: it serves the pool, a
// runner's fallback and ExecuteTasks alike. It checks the task, replays
// its prefix on a private state bound to ctx (recomputing the events the
// serial descent attached) and runs the budgeted dfs under it, through
// the leaf filter when filter is set.
func (sh *enumShared) walk(ctx context.Context, t TaskSpec, filter bool) (*enumState, error) {
	if n := len(sh.instance); len(t.Prefix) > n {
		return nil, fmt.Errorf("strategy: task prefix of %d exceeds instance size %d", len(t.Prefix), n)
	}
	if t.Budget < 0 {
		return nil, fmt.Errorf("strategy: negative task budget %d", t.Budget)
	}
	// The shared struct is read-only, so a shallow copy rebinds ctx
	// without touching the coordinator's.
	shc := *sh
	shc.ctx = ctx
	st := newEnumState(&shc, 0)
	st.startWalk(min(t.Budget, sh.leaves), filter)
	if err := replayPrefix(st, t.Prefix); err != nil {
		return nil, err
	}
	st.dfs(len(t.Prefix), t.Budget)
	return st, nil
}
