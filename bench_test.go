package tapas

import (
	"context"
	"fmt"
	"io"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/experiments"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/store"
)

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure: each regenerates the experiment in
// quick fidelity. Run `go run ./cmd/tapas-bench -exp all` for the full
// sweeps with printed rows.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s missing", id)
	}
	cfg := experiments.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := g.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		tab.Print(io.Discard)
	}
}

func BenchmarkFigure1SearchVsThroughput(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkTable1Complexity(b *testing.B)          { benchExperiment(b, "tab1") }
func BenchmarkFigure5TimeBreakdown(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFigure6SearchTime(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFigure7Throughput(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFigure8WeakScaling(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFigure9Visualization(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFigure10SubgraphPruning(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkTable2CostModelAblation(b *testing.B)   { benchExperiment(b, "tab2") }

// ---------------------------------------------------------------------------
// Component micro-benchmarks: the stages whose complexity Table 1 compares.
// ---------------------------------------------------------------------------

func groupedBench(b *testing.B, name string) *ir.GNGraph {
	b.Helper()
	src, err := models.Build(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkGroupT5Large(b *testing.B) {
	src, err := models.Build("t5-770M")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Group(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineT5Large(b *testing.B) {
	g := groupedBench(b, "t5-770M")
	opt := mining.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.Mine(context.Background(), g, opt)
	}
}

func BenchmarkMineResNet152(b *testing.B) {
	g := groupedBench(b, "resnet152-100K")
	opt := mining.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.Mine(context.Background(), g, opt)
	}
}

func BenchmarkSearchFoldedT5Large(b *testing.B) {
	g := groupedBench(b, "t5-770M")
	cl := cluster.V100x8()
	model := cost.Default(cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
		if _, _, err := strategy.SearchFolded(context.Background(), g, classes, model, strategy.DefaultEnumOptions(8), cl.MemoryPerGP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFolded sweeps the worker-pool size over the pure search
// stage (mining excluded, classes pre-folded) so the parallel speedup is
// measurable in isolation: compare workers=1 with workers=GOMAXPROCS in
// BENCH_*.json across runners. The selected strategy is identical at
// every size; only the wall clock should move.
func BenchmarkSearchFolded(b *testing.B) {
	for _, name := range []string{"t5-770M", "moe-1.3B"} {
		g := groupedBench(b, name)
		cl := cluster.V100x8()
		model := cost.Default(cl)
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
		for _, workers := range []int{1, 4, 8} {
			opt := strategy.DefaultEnumOptions(8)
			opt.Workers = workers
			b.Run(fmt.Sprintf("model=%s/workers=%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := strategy.SearchFolded(context.Background(), g, classes, model, opt, cl.MemoryPerGP); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchAll measures the batch entry point: a fleet of
// (model, GPU-count) searches dispatched concurrently.
func BenchmarkSearchAll(b *testing.B) {
	specs := []SearchSpec{
		{Model: "t5-100M", GPUs: 8},
		{Model: "moe-380M", GPUs: 8},
		{Model: "resnet-26M", GPUs: 4},
		{Model: "bert-base", GPUs: 8},
	}
	eng := NewEngine(WithCache(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchAll(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateIteration(b *testing.B) {
	res, err := coldSearch("t5-770M", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(cluster.V100x8())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(res.Strategy, cfg)
	}
}

func BenchmarkCostModelStrategy(b *testing.B) {
	res, err := coldSearch("t5-770M", 8)
	if err != nil {
		b.Fatal(err)
	}
	m := cost.Default(cluster.V100x8())
	ps := res.Strategy.Assign
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StrategyCost(ps, res.Strategy.Reshard)
	}
}

func BenchmarkEndToEndSearchT5_100M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := coldSearch("t5-100M", 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndSearchT5_1_4B(b *testing.B) {
	// The headline scalability point: search time stays sub-second even
	// on the deepest model because the folded search space is constant.
	for i := 0; i < b.N; i++ {
		if _, err := coldSearch("t5-1.4B", 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRestart measures a restart-to-warm: open a populated
// plan store and answer every registered model at 8 GPUs from it
// through a fresh engine — one store hit per model.
func BenchmarkStoreRestart(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	var specs []SearchSpec
	for _, name := range Models() {
		specs = append(specs, SearchSpec{Model: name, GPUs: 8})
	}
	if _, err := NewEngine(WithStore(st)).SearchAll(ctx, specs); err != nil {
		b.Fatal(err)
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		eng := NewEngine(WithStore(st), WithWorkers(1))
		for _, name := range Models() {
			res, err := eng.Search(ctx, name, 8)
			if err != nil || !res.StoreHit {
				b.Fatalf("%s: err=%v, want a store hit", name, err)
			}
		}
		st.Close()
	}
}
