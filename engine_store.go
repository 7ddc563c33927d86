package tapas

import (
	"context"
	"time"

	"tapas/internal/export"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
	"tapas/internal/trace"
	"tapas/store"
)

// WithStore attaches a persistent plan store. On a result-cache miss
// the Engine consults the store before searching: a stored plan is
// rehydrated against the request's graph, re-priced under the resolved
// cost model and re-simulated — orders of magnitude cheaper than a cold
// search — and served with Result.StoreHit set. Cold searches persist
// their plan write-behind (asynchronously, never stalling the caller),
// so a restarted process answers repeat traffic warm.
//
// Hit precedence is memory cache → store → search. The store's
// lifecycle belongs to the caller: open it before NewEngine, close it
// after the engine's last search (Close drains pending writes).
func WithStore(st *store.Store) Option {
	return func(e *Engine) { e.store = st }
}

// Store returns the attached plan store (nil when none is attached) —
// e.g. for the serving layer to mount the store's peer protocol.
func (e *Engine) Store() *store.Store { return e.store }

// StoreStats snapshots the attached plan store's traffic and size. The
// second return is false when no store is attached.
func (e *Engine) StoreStats() (store.Stats, bool) {
	if e.store == nil {
		return store.Stats{}, false
	}
	return e.store.Stats(), true
}

// storeKey converts a cache key into the store's wire-struct key.
func storeKey(key cacheKey) store.Key {
	return store.Key{
		Kind:    key.kind,
		Graph:   key.graph,
		GPUs:    key.gpus,
		Cluster: key.cluster,
		Options: key.options,
	}
}

// computeSearch is the cold path behind the result cache, wrapped with
// the persistent store when one is attached: store lookup before
// searching, write-behind persist after a successful cold search. g is
// nil for a memoized registered model (cfg.wireModel); it is built here
// only once the store has missed.
func (e *Engine) computeSearch(ctx context.Context, key cacheKey, name string, g *graph.Graph, gpus int, cfg engineConfig) (*Result, error) {
	if e.store != nil && key.kind == "search" {
		t0 := time.Now()
		res, ok := e.storeLookup(key, name, g, gpus, cfg)
		outcome := "miss"
		if ok {
			outcome = "hit"
		}
		trace.Record(ctx, "store.lookup", t0, time.Since(t0), "outcome", outcome)
		if ok {
			return res, nil
		}
	}
	g, err := sourceGraph(g, cfg.wireModel)
	if err != nil {
		return nil, err
	}
	res, err := e.runSearch(ctx, name, g, gpus, cfg)
	if err == nil {
		e.storePersist(key, res)
	}
	return res, err
}

// storeLookup tries to serve one keyed search from the persistent
// store. A record that no longer rehydrates (e.g. written by a build
// with different pattern menus) is dropped from the store so its slot
// is reclaimed, and the caller falls through to a cold search.
func (e *Engine) storeLookup(key cacheKey, name string, g *graph.Graph, gpus int, cfg engineConfig) (*Result, bool) {
	if e.store == nil || key.kind != "search" {
		return nil, false
	}
	sk := storeKey(key)
	rec, ok := e.store.Get(sk)
	if !ok {
		return nil, false
	}
	res, err := e.restoreResult(rec, name, g, gpus, cfg)
	if err != nil {
		e.store.Delete(sk)
		return nil, false
	}
	return res, true
}

// restoreResult rebuilds a full Result from a persisted record: the
// plan is rehydrated against the model's grouped graph (see grouped;
// name-independent, by topological node ID and pattern name) and priced
// under the resolved cost model; its per-device graph is counted, not
// built (see Result.Parallel); and it is re-simulated. All of these are
// deterministic, so the restored Result is identical to the cold one —
// except the hit markers, and the timing block, which is restored from
// the record (mirroring the cache-hit contract: timing describes the
// original cold computation).
func (e *Engine) restoreResult(rec *store.Record, name string, g *graph.Graph, gpus int, cfg engineConfig) (*Result, error) {
	cl, model, _, _ := cfg.resolve(gpus)
	gg, err := e.grouped(g, cfg.wireModel)
	if err != nil {
		return nil, err
	}
	s, err := rec.Plan.Rehydrate(gg, model)
	if err != nil {
		return nil, err
	}
	nodes, collectives, err := reconstruct.Count(s)
	if err != nil {
		return nil, err
	}
	return &Result{ModelName: name, GPUs: gpus, Strategy: s, StoreHit: true,
		DeviceNodes: nodes, DeviceCollectives: collectives,
		Report: sim.Run(s, sim.DefaultConfig(cl)), Timing: rec.Timing}, nil
}

// grouped returns the grouped graph a store hit rehydrates against: for
// a registered model (wireModel set) the one in its memo, built and
// grouped once, by the model's first store hit; for any other graph, g
// grouped afresh. Rehydration, pricing, counting and simulation only
// read it, so concurrent hits share it.
func (e *Engine) grouped(g *graph.Graph, wireModel string) (*ir.GNGraph, error) {
	e.fpMu.Lock()
	m := e.memo[wireModel]
	e.fpMu.Unlock()
	if m == nil {
		return ir.Group(g)
	}
	m.group.Do(func() {
		if g, m.err = sourceGraph(g, wireModel); m.err == nil {
			m.gg, m.err = ir.Group(g)
		}
	})
	return m.gg, m.err
}

// sourceGraph returns g, or builds the registered model's graph when g
// is nil (a memoized model whose graph no hit has needed yet).
func sourceGraph(g *graph.Graph, wireModel string) (*graph.Graph, error) {
	if g != nil {
		return g, nil
	}
	return models.Build(wireModel)
}

// storePersist queues one successful cold search for write-behind
// persistence. Failures to render the plan are swallowed — persistence
// is an accelerator, never a correctness dependency.
func (e *Engine) storePersist(key cacheKey, res *Result) {
	if e.store == nil || key.kind != "search" || res == nil || res.Strategy == nil {
		return
	}
	plan, err := export.FromStrategy(res.Strategy)
	if err != nil {
		return
	}
	e.store.PutAsync(storeKey(key), &store.Record{Model: res.ModelName, GPUs: res.GPUs, Plan: plan, Timing: res.Timing})
}
