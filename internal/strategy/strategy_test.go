package strategy

import (
	"context"
	"strings"
	"testing"
	"time"

	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
)

func groupModel(t testing.TB, name string) *ir.GNGraph {
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

func searchModel(t testing.TB, name string, w int) (*Strategy, *SearchStats) {
	t.Helper()
	g := groupModel(t, name)
	cl := cluster.V100GPUs(w)
	model := cost.Default(cl)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	s, st, err := SearchFolded(context.Background(), g, classes, model, DefaultEnumOptions(w), cl.MemoryPerGP)
	if err != nil {
		t.Fatalf("SearchFolded(%s): %v", name, err)
	}
	return s, st
}

func TestEdgeCompat(t *testing.T) {
	r, s0, s1 := ir.Replicated(), ir.Split(0), ir.Split(1)
	cases := []struct {
		out, need ir.ShardSpec
		reshard   bool
		ok        bool
		events    int
	}{
		{r, r, false, true, 0},
		{s0, s0, false, true, 0},
		{r, s0, false, true, 0},  // local slice, always fine
		{s0, r, false, false, 0}, // needs gather, reshard off
		{s0, r, true, true, 1},   // all-gather reshard
		{s0, s1, true, false, 0}, // different splits never compose
	}
	for _, c := range cases {
		ev, ok := appendEdge(nil, c.out, c.need, 1<<20, 8, c.reshard)
		if ok != c.ok || len(ev) != c.events {
			t.Errorf("appendEdge(%v→%v, reshard=%v) = (%v,%d), want (%v,%d)",
				c.out, c.need, c.reshard, ok, len(ev), c.ok, c.events)
		}
	}
}

func TestEnumerateDenseChainValidatesAllEdges(t *testing.T) {
	b := graph.NewBuilder("chain")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	for i := 0; i < 3; i++ {
		x = b.Dense("d", x, 64, graph.OpReLU)
	}
	g, err := ir.Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.V100x8()
	m := cost.Default(cl)
	opt := DefaultEnumOptions(8)
	opt.AllowReshard = false
	cands, stats := EnumerateInstance(context.Background(), g, g.TopoOrder(), m, opt)
	if len(cands) == 0 {
		t.Fatal("no candidates for a 3-dense chain")
	}
	if stats.Pruned == 0 {
		t.Error("expect some prefixes pruned by the symbolic shape check")
	}
	// Without resharding, every candidate must chain exactly: verify with
	// the global validator.
	for _, c := range cands {
		if _, err := Validate(g, c.Patterns, 8, false); err != nil {
			t.Errorf("candidate failed global validation: %v", err)
		}
	}
}

func TestEnumerateEarlyStopPrunes(t *testing.T) {
	// Most combinations must be invalid, as the paper observes.
	g := groupModel(t, "t5-100M")
	cl := cluster.V100x8()
	m := cost.Default(cl)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	var layer *mining.Class
	for _, c := range classes {
		if c.Size() > 3 {
			layer = c
			break
		}
	}
	if layer == nil {
		t.Fatal("no multi-node class found")
	}
	opt := DefaultEnumOptions(8)
	opt.AllowReshard = false
	_, stats := EnumerateInstance(context.Background(), g, layer.Representative(), m, opt)
	if stats.Pruned < stats.Examined {
		t.Errorf("pruned (%d) should dominate examined (%d) without resharding", stats.Pruned, stats.Examined)
	}
}

func TestSearchFoldedT5Valid(t *testing.T) {
	s, st := searchModel(t, "t5-100M", 8)
	if len(s.Assign) != len(s.Graph.Nodes) {
		t.Fatalf("assignment covers %d of %d nodes", len(s.Assign), len(s.Graph.Nodes))
	}
	if _, err := Validate(s.Graph, s.Assign, 8, true); err != nil {
		t.Fatalf("final strategy invalid: %v", err)
	}
	if s.Cost.Total() <= 0 {
		t.Error("strategy cost must be positive")
	}
	if st.Examined == 0 {
		t.Error("search should examine candidates")
	}
}

func TestSearchFoldedResNetShardsFC(t *testing.T) {
	// The paper's discovered ResNet strategy: duplicate the conv backbone
	// (data parallel), shard the wide FC classifier.
	s, _ := searchModel(t, "resnet-228M", 8)
	desc := s.Describe()
	if !strings.Contains(desc, "data-parallel") {
		t.Errorf("backbone should be data-parallel: %s", desc)
	}
	var fcPattern string
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		if gn.Anchor != nil && strings.HasPrefix(gn.Anchor.Name, "fc_matmul") {
			fcPattern = p.Name
		}
	}
	if fcPattern != "column-parallel" && fcPattern != "column-gather" {
		t.Errorf("wide FC should be column-sharded, got %q", fcPattern)
	}
}

func TestSearchFoldedRespectsMemory(t *testing.T) {
	// With a generous budget the T5-100M plan fits; the estimate must be
	// consistent with MemoryPerDevice.
	s, _ := searchModel(t, "t5-100M", 8)
	if s.MemPerDev != MemoryPerDevice(s.Graph, s.Assign) {
		t.Errorf("MemPerDev %d != recomputed %d", s.MemPerDev, MemoryPerDevice(s.Graph, s.Assign))
	}
	if s.MemPerDev <= 0 {
		t.Error("memory estimate must be positive")
	}
}

func TestSearchExhaustiveMatchesFoldedOnSmallModel(t *testing.T) {
	// TAPAS-ES and TAPAS-GP should land within a small factor on a small
	// model (the paper reports ≤1.5% runtime difference; our proxy is the
	// cost-model score).
	g := groupModel(t, "resnet-26M")
	cl := cluster.V100x8()
	m := cost.Default(cl)

	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	gp, _, err := SearchFolded(context.Background(), g, classes, m, DefaultEnumOptions(8), cl.MemoryPerGP)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultEnumOptions(8)
	opt.MaxCandidates = 1 << 15
	es, _, err := SearchExhaustive(context.Background(), g, m, opt, cl.MemoryPerGP)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Cost.Total() > 1.5*es.Cost.Total() {
		t.Errorf("folded plan (%.4f) much worse than exhaustive (%.4f)", gp.Cost.Total(), es.Cost.Total())
	}
}

func TestSearchExhaustiveTimeBudget(t *testing.T) {
	g := groupModel(t, "t5-200M")
	cl := cluster.V100x8()
	m := cost.Default(cl)
	opt := DefaultEnumOptions(8)
	opt.MaxCandidates = 1 << 20
	opt.TimeBudget = 50 * time.Millisecond
	start := time.Now()
	_, stats, err := SearchExhaustive(context.Background(), g, m, opt, cl.MemoryPerGP)
	if err != nil {
		t.Fatalf("budgeted exhaustive search should still return a plan: %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("time budget not honored: took %v", el)
	}
	_ = stats
}

func TestValidateRejectsIncoherentSharedWeights(t *testing.T) {
	// Two GraphNodes sharing a weight tensor must shard it identically.
	g := groupModel(t, "t5-100M") // encoder+decoder share the embedding
	var embeds []*ir.GraphNode
	for _, gn := range g.Nodes {
		if gn.Kind == ir.KEmbedding {
			embeds = append(embeds, gn)
		}
	}
	if len(embeds) < 2 {
		t.Skip("model does not share embeddings")
	}
	assign := make([]*ir.Pattern, len(g.Nodes))
	for _, gn := range g.Nodes {
		assign[gn.ID] = ir.PatternsFor(gn, 8)[0] // replicate everywhere
	}
	// Force conflicting shardings on the shared table.
	p0 := namedPattern(embeds[0], 8, "vocab-parallel")
	p1 := namedPattern(embeds[1], 8, "hidden-parallel")
	if p0 == nil || p1 == nil {
		t.Skip("embedding patterns unavailable")
	}
	assign[embeds[0].ID], assign[embeds[1].ID] = p0, p1
	if _, err := Validate(g, assign, 8, true); err == nil {
		t.Error("conflicting shared-weight shardings must fail validation")
	}
}

// TestMemoryPerDeviceChargesTiedWeightToLowestID: when the two users of
// t5-100M's tied embedding shard it differently, the answer depends on
// which user is charged for it. A walk in map order charged whichever the
// map visited first, so the value varied between calls; the walk in
// GraphNode.ID order must return one value, the positional sum.
func TestMemoryPerDeviceChargesTiedWeightToLowestID(t *testing.T) {
	g := groupModel(t, "t5-100M")
	var embeds []*ir.GraphNode
	for _, gn := range g.Nodes {
		if gn.Kind == ir.KEmbedding {
			embeds = append(embeds, gn)
		}
	}
	if len(embeds) != 2 || embeds[0].Weights[0] != embeds[1].Weights[0] {
		t.Fatalf("want t5-100M's two embedding nodes sharing one table, got %v", embeds)
	}
	assign := make([]*ir.Pattern, len(g.Nodes))
	for _, gn := range g.Nodes {
		assign[gn.ID] = ir.PatternsFor(gn, 8)[0] // replicate everywhere
	}
	assign[embeds[1].ID] = namedPattern(embeds[1], 8, "vocab-parallel")
	if assign[embeds[0].ID].WeightBytesPerDev == assign[embeds[1].ID].WeightBytesPerDev {
		t.Fatal("the two users must hold different weight bytes for the owner to matter")
	}

	// Positional sum: nodes in ID order, a node's weights counted unless
	// earlier nodes already counted every one of them.
	var want int64
	seen := map[*graph.Tensor]bool{}
	for _, gn := range g.Nodes {
		p := assign[gn.ID]
		owns := len(gn.Weights) == 0
		for _, wt := range gn.Weights {
			owns = owns || !seen[wt]
			seen[wt] = true
		}
		want += p.OutBytesPerDev
		if owns {
			want += 4 * p.WeightBytesPerDev
		}
		for _, e := range p.BwdComm {
			if e.Kind == comm.AllReduce || e.Kind == comm.ReduceScatter {
				want += e.Bytes
			}
		}
	}
	for i := 0; i < 100; i++ {
		if got := MemoryPerDevice(g, assign); got != want {
			t.Fatalf("call %d: MemoryPerDevice = %d, positional sum %d", i, got, want)
		}
	}
}

func namedPattern(gn *ir.GraphNode, w int, name string) *ir.Pattern {
	for _, p := range ir.PatternsFor(gn, w) {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func TestStrategyDescribeStable(t *testing.T) {
	s, _ := searchModel(t, "resnet-26M", 8)
	if s.Describe() == "" {
		t.Error("Describe should be non-empty")
	}
	if s.Describe() != s.Describe() {
		t.Error("Describe must be deterministic")
	}
}

func TestSearchSingleGPUIsReplicate(t *testing.T) {
	s, _ := searchModel(t, "resnet-26M", 1)
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		if p.Name != "replicate" {
			t.Errorf("w=1 should replicate everything, %v got %s", gn, p.Name)
		}
	}
}
