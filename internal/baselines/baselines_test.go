package baselines

import (
	"context"
	"testing"
	"time"

	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/strategy"
)

func grouped(t testing.TB, name string) *ir.GNGraph {
	t.Helper()
	src, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClassifyRoles(t *testing.T) {
	g := grouped(t, "t5-100M")
	found := map[Role]bool{}
	for _, gn := range g.Nodes {
		found[Classify(gn)] = true
	}
	for _, r := range []Role{RoleQKV, RoleAttnOut, RoleFFNUp, RoleFFNDown, RoleHead, RoleEmbed, RoleOther} {
		if !found[r] {
			t.Errorf("role %d not found in T5", r)
		}
	}
}

func TestDataParallelPlanValid(t *testing.T) {
	for _, name := range []string{"t5-100M", "resnet-26M", "moe-380M", "gpt-125M"} {
		g := grouped(t, name)
		cl := cluster.V100x8()
		s, err := DataParallel(g, 8, cost.Default(cl))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := strategy.Validate(g, s.Assign, 8, true); err != nil {
			t.Errorf("%s: DP plan invalid: %v", name, err)
		}
		// DP never shards weights.
		for _, gn := range s.Graph.Nodes {
			p := s.Assign[gn.ID]
			for i := range gn.Weights {
				if !p.WeightSpecs[i].IsReplicated() {
					t.Errorf("%s: DP sharded weight on %v", name, gn)
				}
			}
		}
	}
}

func TestMegatronShardsAttentionAndFFN(t *testing.T) {
	g := grouped(t, "t5-100M")
	s, err := Megatron(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	type rolePattern struct {
		role    Role
		pattern string
	}
	counts := map[rolePattern]int{}
	for _, gn := range s.Graph.Nodes {
		counts[rolePattern{Classify(gn), s.Assign[gn.ID].Name}]++
	}
	if counts[rolePattern{RoleQKV, "column-parallel"}] == 0 {
		t.Errorf("Megatron should column-split QKV: %v", counts)
	}
	if counts[rolePattern{RoleAttnOut, "row-parallel"}] == 0 {
		t.Errorf("Megatron should row-split attention out: %v", counts)
	}
	if counts[rolePattern{RoleFFNUp, "column-parallel"}] == 0 || counts[rolePattern{RoleFFNDown, "row-parallel"}] == 0 {
		t.Errorf("Megatron should split the FFN: %v", counts)
	}
}

func TestFFNOnlyReplicatesAttention(t *testing.T) {
	g := grouped(t, "t5-100M")
	s, err := FFNOnly(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		switch Classify(gn) {
		case RoleQKV, RoleAttnOut:
			if p.Name != "replicate" {
				t.Errorf("FFN-only must replicate attention, %v got %s", gn, p.Name)
			}
		case RoleFFNUp:
			if p.Name != "column-parallel" {
				t.Errorf("FFN-only must column-split up-projection, got %s", p.Name)
			}
		case RoleFFNDown:
			if p.Name != "row-parallel" {
				t.Errorf("FFN-only must row-split down-projection, got %s", p.Name)
			}
		}
	}
}

func TestGShardExpertUsesAllToAll(t *testing.T) {
	g := grouped(t, "moe-380M")
	s, err := GShardExpert(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	a2a, ep := 0, 0
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		switch Classify(gn) {
		case RoleDispatch, RoleCombine:
			if p.Name == "alltoall" {
				a2a++
			}
		case RoleExpert:
			if p.Name == "expert-parallel" {
				ep++
			}
		}
	}
	if a2a == 0 || ep == 0 {
		t.Errorf("GShard plan should route with all-to-all (%d) into sharded experts (%d)", a2a, ep)
	}
}

func TestDeepSpeedMemoryBetweenDPAndSharded(t *testing.T) {
	g := grouped(t, "t5-770M")
	m := cost.Default(cluster.V100x8())
	dp, err := DataParallel(g, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DeepSpeed(g, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	if ds.MemPerDev >= dp.MemPerDev {
		t.Errorf("ZeRO-2 (%d MiB) should use less memory than plain DP (%d MiB)",
			ds.MemPerDev>>20, dp.MemPerDev>>20)
	}
	// ZeRO-2 rewrites gradient all-reduce into RS+AG.
	foundRS := false
	for _, p := range ds.Assign {
		for _, e := range p.BwdComm {
			if e.Kind == comm.ReduceScatter {
				foundRS = true
			}
			if e.Kind == comm.AllReduce {
				t.Error("ZeRO-2 should not keep gradient all-reduce")
			}
		}
	}
	if !foundRS {
		t.Error("ZeRO-2 should reduce-scatter gradients")
	}
}

func TestAlpaSearchFindsValidPlanSlower(t *testing.T) {
	// Alpa's two-level search works on the unfolded graph, so a deeper
	// model (12+12 transformer layers) exposes its superlinear cost
	// against TAPAS's folded search.
	g := grouped(t, "t5-300M")
	cl := cluster.V100x8()
	m := cost.Default(cl)

	opt := DefaultAlpaOptions()
	opt.MaxSegment = 12
	opt.InnerBudget = 32
	s, stats, err := AlpaSearch(context.Background(), g, 8, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strategy.Validate(g, s.Assign, 8, true); err != nil {
		t.Fatalf("Alpa plan invalid: %v", err)
	}
	if stats.Segments == 0 || stats.Examined == 0 {
		t.Error("Alpa search should do real work")
	}

	// TAPAS on the same model must search much faster (the Figure 6 gap).
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	t0 := time.Now()
	_, _, err = strategy.SearchFolded(context.Background(), g, classes, m, strategy.DefaultEnumOptions(8), cl.MemoryPerGP)
	if err != nil {
		t.Fatal(err)
	}
	tapasTime := time.Since(t0)
	if stats.Elapsed < 2*tapasTime {
		t.Errorf("Alpa (%v) should be well slower than TAPAS (%v)", stats.Elapsed, tapasTime)
	}
}

func TestFlexFlowSearchImprovesOnInit(t *testing.T) {
	g := grouped(t, "resnet-26M")
	cl := cluster.V100x8()
	m := cost.Default(cl)

	dp, err := DataParallel(g, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultFlexFlowOptions()
	opt.Budget = 500
	s, stats, err := FlexFlowSearch(context.Background(), g, 8, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost.Total() > dp.Cost.Total()*1.0001 {
		t.Errorf("MCMC result (%v) should never be worse than its DP init (%v)", s.Cost.Total(), dp.Cost.Total())
	}
	if stats.Proposals == 0 {
		t.Error("no proposals made")
	}
	if _, err := strategy.Validate(g, s.Assign, 8, true); err != nil {
		t.Errorf("FlexFlow plan invalid: %v", err)
	}
}

func TestFlexFlowDeterministicWithSeed(t *testing.T) {
	g := grouped(t, "resnet-26M")
	m := cost.Default(cluster.V100x8())
	opt := DefaultFlexFlowOptions()
	opt.Budget = 200
	a, _, err := FlexFlowSearch(context.Background(), g, 8, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FlexFlowSearch(context.Background(), g, 8, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost.Total() != b.Cost.Total() {
		t.Errorf("same seed should give same result: %v vs %v", a.Cost.Total(), b.Cost.Total())
	}
}
