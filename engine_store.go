package tapas

import (
	"context"
	"math"
	"time"

	"tapas/internal/export"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/internal/trace"
	"tapas/store"
)

// WithStore attaches a persistent plan store. On a result-cache miss
// the Engine consults the store before searching: a stored plan is
// rehydrated against the request's graph, re-priced under the resolved
// cost model and re-simulated — orders of magnitude cheaper than a cold
// search — and served with Result.StoreHit set. The hit's plan document
// (Result.PlanDocument) is the stored bytes when the record proves they
// are what rendering would give, so serving it renders nothing. Cold
// searches render their plan document once and persist it write-behind
// (asynchronously, never stalling the caller), so a restarted process
// answers repeat traffic warm.
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
	rec, ok := e.store.Lookup(sk)
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
//
// The Result's plan document is the record's stored bytes when the
// record is a version 2 one whose pinned cost and memory equal the
// re-priced plan's bit for bit and whose document was rendered from the
// names of the graph rehydrated against; otherwise (a version 1
// record, a renamed graph, a cost model that prices differently) it is
// rendered again on demand, as for a cold search.
func (e *Engine) restoreResult(rec *store.Record, name string, g *graph.Graph, gpus int, cfg engineConfig) (*Result, error) {
	cl, model, _, _ := cfg.resolve(gpus)
	gg, names, err := e.grouped(g, cfg.wireModel)
	if err != nil {
		return nil, err
	}
	var s *strategy.Strategy
	if rec.Doc == nil {
		s, err = rec.Plan.Rehydrate(gg, model)
	} else {
		s, err = export.RehydrateNames(gg, rec.Workers, rec.NodePatterns(), model)
	}
	if err != nil {
		return nil, err
	}
	nodes, collectives, err := reconstruct.Count(s)
	if err != nil {
		return nil, err
	}
	res := &Result{ModelName: name, GPUs: gpus, Strategy: s, StoreHit: true,
		DeviceNodes: nodes, DeviceCollectives: collectives,
		Report: sim.Run(s, sim.DefaultConfig(cl)), Timing: rec.Timing}
	if rec.Doc != nil && rec.Names == names &&
		math.Float64bits(rec.CostSeconds) == math.Float64bits(s.Cost.Total()) && rec.MemBytesPerDevice == s.MemPerDev {
		res.memo = renderedMemo(rec.Doc)
	}
	return res, nil
}

// grouped returns the grouped graph a store hit rehydrates against, and
// its names digest (export.GraphNamesDigest): for a registered model
// (wireModel set) the ones in its memo, built, grouped and hashed once,
// by the model's first store hit; for any other graph, g grouped and
// hashed afresh. Rehydration, pricing, counting and simulation only
// read the graph, so concurrent hits share it.
func (e *Engine) grouped(g *graph.Graph, wireModel string) (*ir.GNGraph, string, error) {
	e.fpMu.Lock()
	m := e.memo[wireModel]
	e.fpMu.Unlock()
	if m == nil {
		gg, err := ir.Group(g)
		if err != nil {
			return nil, "", err
		}
		return gg, export.GraphNamesDigest(gg), nil
	}
	m.group.Do(func() {
		if g, m.err = sourceGraph(g, wireModel); m.err == nil {
			if m.gg, m.err = ir.Group(g); m.err == nil {
				m.names = export.GraphNamesDigest(m.gg)
			}
		}
	})
	return m.gg, m.names, m.err
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
// persistence: its plan document, rendered here once into the memo the
// Result keeps (so serving it renders nothing more), with the plan
// facts a later store hit checks. Failures to render the plan are
// swallowed — persistence is an accelerator, never a correctness
// dependency.
func (e *Engine) storePersist(key cacheKey, res *Result) {
	if e.store == nil || key.kind != "search" || res == nil || res.Strategy == nil {
		return
	}
	res.memo = new(entryMemo)
	doc, err := res.PlanDocument()
	if err != nil {
		return
	}
	s := res.Strategy
	rec := &store.Record{Model: res.ModelName, GPUs: res.GPUs, Timing: res.Timing, Doc: doc,
		Workers: s.W, CostSeconds: s.Cost.Total(), MemBytesPerDevice: s.MemPerDev,
		Names: export.GraphNamesDigest(s.Graph)}
	byNode := make([]string, len(s.Assign))
	for id, p := range s.Assign {
		byNode[id] = p.Name
	}
	rec.SetPatterns(byNode)
	e.store.PutAsync(storeKey(key), rec)
}
