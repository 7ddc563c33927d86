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
// deterministically per (node, W, MemPenalty, cost model) — see
// newEnumShared — so "pattern j of node i's menu" names the same
// pattern on every machine holding the same graph, and a candidate is
// just one index per node. Everything float-valued (events, memory,
// cost) is recomputed from the indices on the receiving side, never
// parsed off the wire, which is what keeps the scattered search
// bit-identical to the single-process one.

// TaskSpec is the wire form of one prefixTask: the assignment prefix as
// menu indices (Prefix[d] selects the d-th node's menu entry) plus the
// candidate budget the serial search grants the subtree under it.
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
	// cleared). Only W, AllowReshard, MemPenalty and TimeBudget affect
	// task execution — budgets travel inside each TaskSpec.
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

// runWithRunner is the Runner-backed arm of EnumerateInstance: split the
// tree exactly as the local parallel path would, hand the wire batch to
// the runner, and rebuild candidates in serial task order. Any task the
// runner failed to deliver is recomputed in-process from its retained
// prefix, so the merged output never depends on runner behavior.
func runWithRunner(ctx context.Context, sh *enumShared, runner TaskRunner, workers int) ([]*Candidate, EnumStats) {
	target := 4 * workers
	if f := runner.Fanout(); f > target {
		target = f
	}
	tasks, stats := splitTasks(sh, target)
	exec := newTaskExec(sh)
	specs := make([]TaskSpec, len(tasks))
	for i, t := range tasks {
		specs[i] = TaskSpec{Prefix: t.prefix, Budget: t.budget}
	}
	ids := make([]int, len(sh.instance))
	for i, gn := range sh.instance {
		ids[i] = gn.ID
	}
	opt := sh.opt
	opt.Progress, opt.Runner = nil, nil
	batch := TaskBatch{
		Instance: ids,
		Opt:      opt,
		Tasks:    specs,
		Local: func(lctx context.Context, ts []TaskSpec) []TaskResult {
			res, _ := exec.runAll(lctx, workers, ts)
			return res
		},
	}
	results, err := runner.RunTasks(ctx, batch)
	if err != nil {
		stats.Canceled = true
		return nil, stats
	}
	var out []*Candidate
	for i, t := range tasks {
		var (
			cands []*Candidate
			es    EnumStats
			ok    bool
		)
		// A result cut short by a remote cancellation is partial: its
		// subtree was not fully walked, so merging it would diverge from
		// serial. Recompute it like a missing result.
		if i < len(results) && !results[i].Stats.Canceled {
			if cs, rerr := exec.rebuild(results[i]); rerr == nil {
				cands, es, ok = cs, results[i].Stats, true
			}
		}
		if !ok {
			st := t.walk(sh)
			cands, es = st.out, st.stats
		}
		stats.merge(es)
		out = append(out, cands...)
	}
	return out, stats
}

// ExecuteTasks runs shipped prefix tasks against a local copy of the
// graph: the instance is resolved by GraphNode ID, the enumeration
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
	byID := make(map[int]*ir.GraphNode, len(g.Nodes))
	for _, gn := range g.Nodes {
		byID[gn.ID] = gn
	}
	instance := make([]*ir.GraphNode, len(instanceIDs))
	for i, id := range instanceIDs {
		gn, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("strategy: instance node id %d not in graph", id)
		}
		instance[i] = gn
	}
	opt.Progress, opt.Runner = nil, nil
	sh := newEnumShared(ctx, g, instance, model, opt)
	exec := newTaskExec(sh)
	return exec.runAll(ctx, parallel.Workers(opt.Workers), tasks)
}

// taskExec executes and rebuilds wire tasks over one enumeration
// context. menuIdx inverts each node's menu so completed candidates can
// be rendered back to indices.
type taskExec struct {
	sh      *enumShared
	menuIdx []map[*ir.Pattern]int
}

func newTaskExec(sh *enumShared) *taskExec {
	idx := make([]map[*ir.Pattern]int, len(sh.menus))
	for i, menu := range sh.menus {
		m := make(map[*ir.Pattern]int, len(menu))
		for j, p := range menu {
			m[p] = j
		}
		idx[i] = m
	}
	return &taskExec{sh: sh, menuIdx: idx}
}

// runAll executes tasks across a bounded pool, one private enumState per
// task. The first invalid task aborts the batch; cancellation instead
// lands in the per-result stats.
func (x *taskExec) runAll(ctx context.Context, workers int, tasks []TaskSpec) ([]TaskResult, error) {
	return parallel.Map(ctx, workers, tasks, func(tctx context.Context, _ int, t TaskSpec) (TaskResult, error) {
		return x.run(tctx, t)
	})
}

// run replays one task's prefix (recomputing the reshard events the
// serial descent attached) and walks its subtree with the shipped
// budget.
func (x *taskExec) run(ctx context.Context, t TaskSpec) (TaskResult, error) {
	n := len(x.sh.instance)
	if len(t.Prefix) > n {
		return TaskResult{}, fmt.Errorf("strategy: task prefix of %d exceeds instance size %d", len(t.Prefix), n)
	}
	if t.Budget < 0 {
		return TaskResult{}, fmt.Errorf("strategy: negative task budget %d", t.Budget)
	}
	// Per-task context: the shared struct is read-only, so a shallow
	// copy rebinds ctx without touching the coordinator's.
	shc := *x.sh
	shc.ctx = ctx
	st := newEnumState(&shc)
	if err := x.replayPrefix(st, t.Prefix); err != nil {
		return TaskResult{}, err
	}
	st.dfs(len(t.Prefix), t.Budget)

	res := TaskResult{Stats: st.stats}
	if len(st.out) > 0 {
		res.Candidates = make([][]int, len(st.out))
		for k, c := range st.out {
			idx := make([]int, n)
			for i, p := range c.Patterns {
				idx[i] = x.menuIdx[i][p]
			}
			res.Candidates[k] = idx
		}
	}
	return res, nil
}

// replayPrefix assigns the prefix's menu choices into st, validating
// each against the already-replayed predecessors exactly as the serial
// descent did when it created the task. The events are freshly
// allocated, not depth scratch: the walk under the prefix keeps them.
func (x *taskExec) replayPrefix(st *enumState, prefix []int) error {
	for i, mi := range prefix {
		if mi < 0 || mi >= len(x.sh.menus[i]) {
			return fmt.Errorf("strategy: prefix index %d out of range for node %d (menu size %d)", mi, i, len(x.sh.menus[i]))
		}
		p := x.sh.menus[i][mi]
		evs, ok := st.eventsFor(nil, i, p)
		if !ok {
			return fmt.Errorf("strategy: inconsistent task prefix at node %d", i)
		}
		st.assigned[i], st.events[i] = p, evs
	}
	return nil
}

// rebuild converts one wire result back into Candidates, recomputing
// events, memory and cost locally — byte-precision floats never cross
// the wire, so the rebuilt candidates are exactly what complete() would
// have produced in-process. The scratch state's stats are discarded:
// the executor already accounted this subtree's effort in
// TaskResult.Stats.
func (x *taskExec) rebuild(r TaskResult) ([]*Candidate, error) {
	n := len(x.sh.instance)
	out := make([]*Candidate, 0, len(r.Candidates))
	st := newEnumState(x.sh) // each replay overwrites every position
	for _, idx := range r.Candidates {
		if len(idx) != n {
			return nil, fmt.Errorf("strategy: candidate of %d indices for instance of %d", len(idx), n)
		}
		if err := x.replayPrefix(st, idx); err != nil {
			return nil, err
		}
		out = append(out, x.sh.newCandidate(st.assigned, st.events))
	}
	return out, nil
}
