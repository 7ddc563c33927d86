package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/service"
)

// The two cold key sets. Deep graphs spend most of a cold search mining
// (t5-1.4B has 1,246 nodes); the wide set has few classes with large
// menus, so enumeration dominates. README.md has the measured shares.
var (
	coldDeepKeys = []key{{"t5-1.4B", 8}, {"t5-770M", 8}}
	coldWideKeys = []key{{"t5-100M", 8}, {"moe-380M", 8}, {"gpt-125M", 8}, {"vit-base", 8}, {"bert-base", 16}}
)

func runColdDeep(b *bench) (*report, error) { return runCold(b, coldDeepKeys) }
func runColdWide(b *bench) (*report, error) { return runCold(b, coldWideKeys) }

// coldEngine is the engine both cold workloads search with: no result
// cache and no store, so every search runs the whole pipeline. The
// workloads search serially on one core (README.md, "Steadiness");
// engine.workers_speedup is where the parallel search shows.
func coldEngine(workers int) *tapas.Engine {
	return tapas.NewEngine(tapas.WithCache(0), tapas.WithWorkers(workers))
}

func keyNames(keys []key) []string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.String()
	}
	return names
}

// verifyResult counts one search and checks that its plan is the
// reference plan.
func verifyResult(v *verifier, t *tally, k key, res *tapas.Result, err error) {
	if err == nil {
		var plan *service.PlanJSON
		if plan, err = service.NewPlan(res.Strategy); err == nil {
			err = v.checkPlan(k, plan)
		}
	}
	t.note(err)
}

// searchVerified runs one engine search and checks the plan. It returns
// the search's wall time in milliseconds; verification is outside it.
func searchVerified(eng *tapas.Engine, v *verifier, t *tally, k key) float64 {
	t0 := time.Now()
	res, err := eng.Search(context.Background(), k.Model, k.GPUs)
	d := ms(time.Since(t0))
	verifyResult(v, t, k, res, err)
	return d
}

// coldPass searches every key once, in an order drawn from r, and adds
// each search's time to st under the key's name.
func coldPass(eng *tapas.Engine, v *verifier, t *tally, r *rand.Rand, keys []key, st steps) {
	for _, k := range shuffled(r, keys) {
		st.add(k.String(), searchVerified(eng, v, t, k))
	}
}

// coldPasses runs passes for d and returns every key's quiet search time.
func coldPasses(eng *tapas.Engine, v *verifier, t *tally, r *rand.Rand, keys []key, d time.Duration) ([]float64, int) {
	st := steps{}
	for start := time.Now(); time.Since(start) < d; {
		coldPass(eng, v, t, r, keys, st)
	}
	names := keyNames(keys)
	return st.quiet(names...), st.rounds(names...)
}

func runCold(b *bench, keys []key) (*report, error) {
	var (
		v      *verifier
		eng    *tapas.Engine
		setups []float64
		t      tally
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one core, like the engine's one worker
	r := rand.New(rand.NewSource(b.seed))
	for i := 0; i < b.setupRepeats(); i++ {
		t0 := time.Now()
		var err error
		if v, err = newVerifier(b.root); err != nil {
			return nil, err
		}
		eng = coldEngine(1)
		coldPass(eng, v, &t, r, keys, nil) // warm pass: page in code and fixtures
		setups = append(setups, time.Since(t0).Seconds())
	}
	if b.rec != nil {
		return coldTraced(b, v, &t, r, keys)
	}
	searches, rounds := coldPasses(eng, v, &t, r, keys, b.seconds)
	return roundIsOp(&t, setups, searches, 0, 0, rounds), nil
}

// stageSums holds one pass taken apart: per-layer metric name to the
// sum over the pass's keys of that stage's time or count. Names outside
// the per-layer table (the whole SearchFolded call) are working values.
type stageSums map[string]float64

// pipelineStages are the stages Engine.Search itself runs; their sum is
// what engine.cold_ms is compared with.
var pipelineStages = []string{"models.build_ms", "graph.fingerprint_ms", "ir.group_ms", "mining.mine_ms",
	"mining.fold_ms", "strategy.search_ms", "reconstruct.ms", "sim.run_ms"}

func (m stageSums) pipeline() float64 {
	total := 0.0
	for _, name := range pipelineStages {
		total += m[name]
	}
	return total
}

func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// staged runs one cold search by hand, stage by stage, with the
// engine's defaults, under a span per stage, and adds what it measured
// to m. It verifies that the plan the stages produce is the reference
// plan, i.e. that it still mirrors what Engine.Search does.
func staged(rec *recorder, trace string, v *verifier, t *tally, k key, workers int, m stageSums) error {
	ctx := context.Background()
	cl := cluster.V100GPUs(k.GPUs)
	model := cost.Default(cl)
	enum := strategy.DefaultEnumOptions(k.GPUs)
	enum.Workers = workers
	mopt := mining.DefaultOptions()
	mopt.Workers = workers

	root := rec.begin(trace, 0, "staged")
	defer root.end()

	sp := rec.begin(trace, root.id, "models.Build")
	g, err := models.Build(k.Model)
	m["models.build_ms"] += sp.end()
	if err != nil {
		return err
	}
	m["graph.nodes"] += float64(len(g.Nodes))

	sp = rec.begin(trace, root.id, "graph.Fingerprint")
	_ = g.Fingerprint()
	m["graph.fingerprint_ms"] += sp.end()

	sp = rec.begin(trace, root.id, "ir.Group")
	gg, err := ir.Group(g)
	m["ir.group_ms"] += sp.end()
	if err != nil {
		return err
	}
	m["ir.graphnodes"] += float64(len(gg.Nodes))

	a0 := mallocs()
	sp = rec.begin(trace, root.id, "mining.Mine")
	mres := mining.Mine(ctx, gg, mopt)
	m["mining.mine_ms"] += sp.end()
	m["mining.allocs"] += mallocs() - a0
	m["mining.levels"] += float64(mres.Levels)

	sp = rec.begin(trace, root.id, "mining.Fold")
	classes := mining.Fold(gg, mres)
	m["mining.fold_ms"] += sp.end()
	m["mining.classes"] += float64(len(classes))

	a0 = mallocs()
	sp = rec.begin(trace, root.id, "strategy.SearchFolded")
	strat, stats, err := strategy.SearchFolded(ctx, gg, classes, model, enum, cl.MemoryPerGP)
	m["strategy.search_ms"] += sp.end()
	m["strategy.allocs"] += mallocs() - a0
	if err != nil {
		return err
	}
	// The split is measured inside the strategy layer; like the engine,
	// record it as two back-to-back children of the search span.
	rec.add(trace, sp.id, "strategy.enumerate", sp.start, stats.EnumTime)
	rec.add(trace, sp.id, "strategy.assemble", sp.start.Add(stats.EnumTime), stats.AssembleTime)
	m["strategy.enum_ms"] += ms(stats.EnumTime)
	m["strategy.assemble_ms"] += ms(stats.AssembleTime)
	m["strategy.examined"] += float64(stats.Examined)
	m["strategy.pruned"] += float64(stats.Pruned)

	sp = rec.begin(trace, root.id, "reconstruct.Reconstruct")
	pg, err := reconstruct.Reconstruct(strat)
	m["reconstruct.ms"] += sp.end()
	if err != nil {
		return err
	}
	m["reconstruct.collectives"] += float64(len(pg.Collectives))

	sp = rec.begin(trace, root.id, "sim.Run")
	rep := sim.Run(strat, sim.DefaultConfig(cl))
	m["sim.run_ms"] += sp.end()
	m["sim.plan_cost_geomean"] += math.Log(rep.IterationTime) // stagedPass turns the sum into the mean

	sp = rec.begin(trace, root.id, "export.encode")
	plan, err := service.NewPlan(strat)
	var raw []byte
	if err == nil {
		raw, err = json.Marshal(plan)
	}
	m["export.plan_encode_ms"] += sp.end()
	if err != nil {
		return err
	}
	m["export.plan_bytes"] += float64(len(raw))
	t.note(v.checkRaw(k, raw))

	g2, err := models.Build(k.Model)
	if err != nil {
		return err
	}
	sp = rec.begin(trace, root.id, "export.rehydrate")
	_, err = service.RehydratePlan(plan, g2)
	m["export.rehydrate_ms"] += sp.end()
	return err
}

// stagedPass takes every key apart once and returns the per-pass sums
// with the ratios derived from them.
func stagedPass(rec *recorder, pass int, v *verifier, t *tally, keys []key, workers int) (stageSums, error) {
	m := stageSums{}
	for _, k := range keys {
		if err := staged(rec, fmt.Sprintf("pass%d/%v", pass, k), v, t, k, workers, m); err != nil {
			return nil, fmt.Errorf("staged search of %v: %w", k, err)
		}
	}
	m["sim.plan_cost_geomean"] = math.Exp(m["sim.plan_cost_geomean"] / float64(len(keys)))
	m["mining.fold_ratio"] = m["ir.graphnodes"] / m["mining.classes"]
	m["strategy.ns_per_examined"] = m["strategy.enum_ms"] * 1e6 / m["strategy.examined"]
	return m, nil
}

// stageMetrics reports every staged value as its least over passes: the
// fastest repeat of a time, and the value itself of a count, which is the
// same on every pass.
func stageMetrics(passes []stageSums, out map[string]sample) {
	vals := make([]float64, len(passes))
	for name := range passes[0] {
		for i, p := range passes {
			vals[i] = p[name]
		}
		out[name] = sample{slices.Min(vals), len(passes)}
	}
}

// coldTraced is the traced run of a cold workload. For three quarters of
// the measuring time it takes turns between a plain pass (the base the
// tracing overhead is measured against, under the same weather), a
// traced engine pass and the same searches staged by hand; the last
// quarter runs passes on every core for the worker speed-up. Like the
// untraced run it searches serially and reports fastest repeats.
func coldTraced(b *bench, v *verifier, t *tally, r *rand.Rand, keys []key) (*report, error) {
	out := map[string]sample{}
	eng := coldEngine(1)
	quarter := b.seconds / 4

	plain, traced, allocs, allocMB := steps{}, steps{}, steps{}, steps{}
	var staging []stageSums
	for start, pass := time.Now(), 0; time.Since(start) < 3*quarter; pass++ {
		coldPass(eng, v, t, r, keys, plain)
		for _, k := range keys {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp := b.rec.begin(fmt.Sprintf("pass%d/%v", pass, k), 0, "Engine.Search")
			res, err := eng.Search(context.Background(), k.Model, k.GPUs)
			traced.add(k.String(), sp.end())
			runtime.ReadMemStats(&m1)
			allocs.add(k.String(), float64(m1.Mallocs-m0.Mallocs))
			allocMB.add(k.String(), float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			verifyResult(v, t, k, res, err)
		}
		s, err := stagedPass(b.rec, pass, v, t, keys, 1)
		if err != nil {
			return nil, err
		}
		staging = append(staging, s)
	}
	stageMetrics(staging, out)
	pipe := make([]float64, len(staging))
	for i, s := range staging {
		pipe[i] = s.pipeline()
	}

	runtime.GOMAXPROCS(b.nproc)
	parallel, parallelRounds := coldPasses(coldEngine(b.nproc), v, t, r, keys, quarter)
	runtime.GOMAXPROCS(1)

	names := keyNames(keys)
	n := float64(len(keys))
	cold := sum(traced.quiet(names...))
	out["engine.cold_ms"] = sample{cold, len(staging)}
	out["engine.self_ms"] = sample{cold - slices.Min(pipe), len(staging)}
	out["engine.warm_hit_us"] = warmHit(v, t, keys)
	serial := sum(plain.quiet(names...))
	out["engine.workers_speedup"] = sample{serial / sum(parallel), parallelRounds}
	out["engine.allocs_per_search"] = sample{sum(allocs.quiet(names...)) / n, len(staging)}
	out["engine.alloc_mb_per_search"] = sample{sum(allocMB.quiet(names...)) / n, len(staging)}
	out["trace.overhead_share"] = sample{cold/serial - 1, len(staging)}
	return &report{attempted: t.attempted, failed: t.failed, metrics: out}, nil
}

// warmHit times repeat searches on an engine whose cache holds every
// key: the in-engine floor under a serving hit.
func warmHit(v *verifier, t *tally, keys []key) sample {
	eng := tapas.NewEngine()
	for _, k := range keys {
		searchVerified(eng, v, t, k)
	}
	const rounds = 2000
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		res, err := eng.Search(context.Background(), k.Model, k.GPUs)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		if err == nil && !res.CacheHit {
			err = fmt.Errorf("%v: repeat search was not a cache hit", k)
		}
		if err != nil {
			t.note(err)
		}
	}
	return sample{median(us), rounds}
}
