package tapas

import (
	"context"
	"strings"
	"testing"
	"time"
)

// coldSearch runs one search on a fresh Engine with the result cache
// off: the cold pipeline, which is what the tests and benchmarks of this
// package measure and compare.
func coldSearch(model string, gpus int, opts ...Option) (*Result, error) {
	eng := NewEngine(append([]Option{WithCache(0)}, opts...)...)
	return eng.Search(context.Background(), model, gpus)
}

func TestSearchEndToEnd(t *testing.T) {
	res, err := coldSearch("t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy == nil {
		t.Fatal("missing strategy")
	}
	if pg, err := res.Parallel(); err != nil || pg == nil {
		t.Fatalf("missing parallel graph: %v", err)
	}
	if res.Report.IterationTime <= 0 {
		t.Error("simulation should produce a positive iteration time")
	}
	if res.UniqueGraphs <= 0 || res.UniqueGraphs >= len(res.Strategy.Graph.Nodes) {
		t.Errorf("folding should shrink the graph: %d classes for %d nodes",
			res.UniqueGraphs, len(res.Strategy.Graph.Nodes))
	}
	if res.TotalTime <= 0 || res.Examined == 0 {
		t.Error("search accounting missing")
	}
}

// TestFoldedSearchFlatInDepth is the paper's Figure 6 premise as a
// guard: t5-1.4B has about twice the grouped nodes of t5-770M, but the
// fold leaves the same 14 classes, so a cold search enumerates the same
// 8,674 candidates on both. Growth in Classes or Examined with depth
// means the fold stopped working.
func TestFoldedSearchFlatInDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("two deep cold searches")
	}
	var got [2]*Result
	for i, model := range []string{"t5-770M", "t5-1.4B"} {
		res, err := coldSearch(model, 8, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	for i, res := range got {
		if res.Classes != 14 || res.Examined != 8674 {
			t.Errorf("%s: %d classes, %d examined; want 14 and 8674", res.ModelName, res.Classes, res.Examined)
		}
		if i > 0 && len(res.Strategy.Graph.Nodes) < 3*len(got[0].Strategy.Graph.Nodes)/2 {
			t.Errorf("%s has %d grouped nodes, %s %d: the pair no longer differs in depth",
				res.ModelName, len(res.Strategy.Graph.Nodes), got[0].ModelName, len(got[0].Strategy.Graph.Nodes))
		}
	}
}

func TestSearchUnknownModel(t *testing.T) {
	if _, err := coldSearch("nope", 8); err == nil {
		t.Error("unknown model must error")
	}
}

func TestBaselinesAllRun(t *testing.T) {
	eng, ctx := NewEngine(WithCache(0)), context.Background()
	for _, b := range []string{"dp", "deepspeed", "megatron", "ffn-only", "mha-only"} {
		res, err := eng.Baseline(ctx, b, "t5-100M", 8)
		if err != nil {
			t.Fatalf("baseline %s: %v", b, err)
		}
		if res.Report.IterationTime <= 0 {
			t.Errorf("baseline %s: no simulated time", b)
		}
	}
	if _, err := eng.Baseline(ctx, "gshard", "moe-380M", 8); err != nil {
		t.Errorf("gshard on MoE: %v", err)
	}
	if _, err := eng.Baseline(ctx, "bogus", "t5-100M", 8); err == nil {
		t.Error("unknown baseline must error")
	}
}

func TestSearchExhaustiveOption(t *testing.T) {
	res, err := coldSearch("resnet-26M", 8, WithExhaustive(true), WithTimeBudget(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.MineTime != 0 {
		t.Error("exhaustive search should skip mining")
	}
	if res.Strategy == nil {
		t.Fatal("no strategy")
	}
}

func TestSearchFoldedFasterThanExhaustiveSameQuality(t *testing.T) {
	gp, err := coldSearch("t5-200M", 8)
	if err != nil {
		t.Fatal(err)
	}
	es, err := coldSearch("t5-200M", 8, WithExhaustive(true), WithTimeBudget(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The paper: ES vs GP quality within 1.5%; we allow a loose factor on
	// the simulated iteration time, and GP must search faster.
	if gp.Report.IterationTime > 1.5*es.Report.IterationTime {
		t.Errorf("folded plan (%v) much slower than exhaustive (%v)",
			gp.Report.IterationTime, es.Report.IterationTime)
	}
}

func TestModelsAndBaselinesLists(t *testing.T) {
	if len(Models()) < 15 {
		t.Errorf("models registry too small: %v", Models())
	}
	if len(Baselines()) != 8 {
		t.Errorf("baselines list: %v", Baselines())
	}
}

func TestNewClusterPresets(t *testing.T) {
	c := NewCluster(24)
	if c.TotalGPUs() != 24 {
		t.Errorf("NewCluster(24) has %d GPUs", c.TotalGPUs())
	}
}

func TestBuildModelGraph(t *testing.T) {
	g, err := BuildModel("resnet-26M")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(g.Name, "resnet") {
		t.Errorf("unexpected graph name %q", g.Name)
	}
}

func TestSearchDiscoversResNetFCSharding(t *testing.T) {
	// Headline qualitative result: TAPAS duplicates the ResNet backbone
	// and shards the wide classifier.
	res, err := coldSearch("resnet-228M", 8)
	if err != nil {
		t.Fatal(err)
	}
	desc := res.Strategy.Describe()
	if !strings.Contains(desc, "data-parallel") || !strings.Contains(desc, "column") {
		t.Errorf("expected DP backbone + column-split FC, got %s", desc)
	}
}
