package ir

import (
	"testing"

	"tapas/internal/comm"
	"tapas/internal/graph"
	"tapas/internal/models"
)

func patternByName(ps []*Pattern, name string) *Pattern {
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func TestDensePatternsFigure3(t *testing.T) {
	g, _ := Group(denseLayerGraph())
	gn := g.Nodes[0]
	ps := PatternsFor(gn, 2)

	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{"replicate", "data-parallel", "column-parallel", "row-parallel", "column-gather"} {
		if !names[want] {
			t.Errorf("missing pattern %q (got %v)", want, names)
		}
	}

	// Column-parallel: feature-split output, halved weight bytes, no
	// forward comm, backward all-reduce of input grads.
	col := patternByName(ps, "column-parallel")
	if !col.In.IsReplicated() || !col.Out.Equal(Split(1)) {
		t.Errorf("column-parallel specs: in=%v out=%v", col.In, col.Out)
	}
	if col.WeightBytesPerDev != gn.WeightBytes()/2 {
		t.Errorf("column-parallel weight bytes %d, want half of %d", col.WeightBytesPerDev, gn.WeightBytes())
	}
	if len(col.FwdComm) != 0 || len(col.BwdComm) != 1 || col.BwdComm[0].Kind != comm.AllReduce {
		t.Errorf("column-parallel comm: fwd=%v bwd=%v", col.FwdComm, col.BwdComm)
	}

	// Row-parallel: feature-split input, replicated output via forward
	// all-reduce — the paper's CAR expression.
	row := patternByName(ps, "row-parallel")
	if !row.In.Equal(Split(1)) || !row.Out.IsReplicated() {
		t.Errorf("row-parallel specs: in=%v out=%v", row.In, row.Out)
	}
	if len(row.FwdComm) != 1 || row.FwdComm[0].Kind != comm.AllReduce {
		t.Errorf("row-parallel fwd comm = %v", row.FwdComm)
	}
	if row.SRC == "" {
		t.Error("row-parallel should carry an SRC expression")
	}

	// Data-parallel: batch split with gradient all-reduce.
	dp := patternByName(ps, "data-parallel")
	if !dp.In.Equal(Split(0)) || !dp.Out.Equal(Split(0)) {
		t.Errorf("data-parallel specs: in=%v out=%v", dp.In, dp.Out)
	}
	if len(dp.BwdComm) != 1 || dp.BwdComm[0].Bytes != gn.WeightBytes() {
		t.Errorf("data-parallel bwd comm = %v, want full weight bytes", dp.BwdComm)
	}
	if dp.FLOPsPerDev != gn.ForwardFLOPs()/2 {
		t.Errorf("data-parallel flops = %d, want half", dp.FLOPsPerDev)
	}
}

func TestPatternsSingleWorkerTrivial(t *testing.T) {
	g, _ := Group(denseLayerGraph())
	ps := PatternsFor(g.Nodes[0], 1)
	if len(ps) != 1 || ps[0].Name != "replicate" {
		t.Errorf("w=1 should only have replicate, got %v", ps)
	}
}

func TestPatternsRespectDivisibility(t *testing.T) {
	// A dense layer with odd output features cannot be column-split by 2.
	b := graph.NewBuilder("odd")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	b.Dense("odd", x, 63, graph.OpIdentity)
	g, _ := Group(b.G)
	ps := PatternsFor(g.Nodes[0], 2)
	if p := patternByName(ps, "column-parallel"); p != nil {
		t.Error("column-parallel must be omitted when features do not divide")
	}
	if p := patternByName(ps, "row-parallel"); p == nil {
		t.Error("row-parallel should still be available (K=64 divides)")
	}
}

func TestQKVDenseOutSpecMapsToHeads(t *testing.T) {
	// In T5, the Q projection absorbs the (B,S,D)→(B,H,S,Dh) reshape, so
	// its column-parallel boundary output must be head-split (axis 1).
	g, err := Group(models.T5(models.T5Sized("100M")))
	if err != nil {
		t.Fatal(err)
	}
	for _, gn := range g.Nodes {
		if gn.Layer != "enc.0" || gn.Kind != KDense || len(gn.Post) == 0 {
			continue
		}
		hasReshape := false
		for _, p := range gn.Post {
			if p.Kind == graph.OpReshape {
				hasReshape = true
			}
		}
		if !hasReshape {
			continue
		}
		col := patternByName(PatternsFor(gn, 8), "column-parallel")
		if col == nil {
			t.Fatalf("%v: no column-parallel pattern", gn)
		}
		if !col.Out.Equal(Split(1)) {
			t.Errorf("%v column-parallel out = %v, want S1 (head split)", gn, col.Out)
		}
		return
	}
	t.Fatal("no QKV dense with reshape suffix found in enc.0")
}

func TestExpertPatterns(t *testing.T) {
	g, err := Group(models.MoE(models.MoESized("380M"))) // E=8
	if err != nil {
		t.Fatal(err)
	}
	var expert *GraphNode
	for _, gn := range g.Nodes {
		if gn.Kind == KExpert {
			expert = gn
			break
		}
	}
	if expert == nil {
		t.Fatal("no expert GraphNode")
	}

	ps := PatternsFor(expert, 8)
	ep := patternByName(ps, "expert-parallel")
	if ep == nil {
		t.Fatal("expert-parallel missing for E=8, w=8")
	}
	if !ep.In.Equal(Split(0)) || !ep.Out.Equal(Split(0)) {
		t.Errorf("expert-parallel specs: %v %v", ep.In, ep.Out)
	}
	if len(ep.FwdComm)+len(ep.BwdComm) != 0 {
		t.Error("expert-parallel should emit no collectives itself")
	}
	if ep.WeightBytesPerDev != expert.WeightBytes()/8 {
		t.Errorf("expert weight bytes = %d, want 1/8", ep.WeightBytesPerDev)
	}

	// Nested expert+tensor parallelism appears only when w > E.
	ps16 := PatternsFor(expert, 16)
	if patternByName(ps16, "expert-tensor-parallel") == nil {
		t.Error("expert-tensor-parallel missing for E=8, w=16")
	}
	if patternByName(ps16, "expert-parallel") != nil {
		t.Error("plain expert-parallel should be unavailable when w > E")
	}
	if patternByName(ps, "expert-tensor-parallel") != nil {
		t.Error("expert-tensor-parallel should need w > E")
	}
}

func TestDispatchCombinePatterns(t *testing.T) {
	g, _ := Group(models.MoE(models.MoESized("380M")))
	var disp, comb *GraphNode
	for _, gn := range g.Nodes {
		switch gn.Kind {
		case KDispatch:
			if disp == nil {
				disp = gn
			}
		case KCombine:
			if comb == nil {
				comb = gn
			}
		}
	}
	if disp == nil || comb == nil {
		t.Fatal("missing dispatch/combine nodes")
	}

	dps := PatternsFor(disp, 8)
	a2a := patternByName(dps, "alltoall")
	if a2a == nil {
		t.Fatal("dispatch alltoall missing")
	}
	if a2a.FwdComm[0].Kind != comm.AllToAll {
		t.Errorf("dispatch fwd comm = %v", a2a.FwdComm)
	}
	slice := patternByName(dps, "slice-experts")
	if slice == nil || len(slice.FwdComm) != 0 {
		t.Error("slice-experts should exist and be communication-free")
	}

	cps := PatternsFor(comb, 8)
	if patternByName(cps, "alltoall") == nil {
		t.Error("combine alltoall missing")
	}
	ge := patternByName(cps, "gather-experts")
	if ge == nil || ge.FwdComm[0].Kind != comm.AllReduce {
		t.Error("gather-experts should all-reduce forward")
	}
	// Combine's secondary (gates) input keeps its own spec.
	if ge.In2Spec().Axis != -1 {
		t.Errorf("gather-experts In2 = %v, want replicated", ge.In2Spec())
	}
}

func TestGluePatternsPropagate(t *testing.T) {
	// The attention scores glue node (BatchMatMul+Softmax) must offer a
	// head-split passthrough but no contraction-axis split.
	g, _ := Group(models.T5(models.T5Sized("100M")))
	for _, gn := range g.Nodes {
		if gn.Kind != KGlue || gn.Layer != "enc.0" {
			continue
		}
		if gn.Ops[0].Kind != graph.OpBatchMatMul {
			continue
		}
		ps := PatternsFor(gn, 8)
		var hasHead, hasLast bool
		for _, p := range ps {
			if p.In.Equal(Split(1)) {
				hasHead = true
			}
			if p.In.Equal(Split(3)) {
				hasLast = true
			}
		}
		if !hasHead {
			t.Error("scores glue should pass a head split")
		}
		if hasLast {
			t.Error("scores glue must not pass a contraction-axis split")
		}
		return
	}
	t.Fatal("no scores glue node found")
}

func TestEmbeddingPatterns(t *testing.T) {
	g, _ := Group(models.T5(models.T5Sized("100M")))
	var emb *GraphNode
	for _, gn := range g.Nodes {
		if gn.Kind == KEmbedding {
			emb = gn
			break
		}
	}
	if emb == nil {
		t.Fatal("no embedding node")
	}
	ps := PatternsFor(emb, 8)
	vp := patternByName(ps, "vocab-parallel")
	if vp == nil || vp.FwdComm[0].Kind != comm.AllReduce {
		t.Error("vocab-parallel should all-reduce forward")
	}
	hp := patternByName(ps, "hidden-parallel")
	if hp == nil || !hp.Out.Equal(Split(2)) {
		t.Errorf("hidden-parallel out should be feature-split, got %+v", hp)
	}
}

func TestAllPatternsHaveSaneFootprints(t *testing.T) {
	// Property over the whole model zoo: every pattern of every GraphNode
	// has non-negative footprints and per-device flops ≤ full flops.
	for _, name := range []string{"t5-100M", "moe-380M", "resnet-26M"} {
		gr, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Group(gr)
		if err != nil {
			t.Fatal(err)
		}
		for _, gn := range g.Nodes {
			for _, p := range PatternsFor(gn, 8) {
				if p.FLOPsPerDev < 0 || p.FLOPsPerDev > gn.ForwardFLOPs() {
					t.Errorf("%s %v %s: flops/dev %d out of [0,%d]", name, gn, p.Name, p.FLOPsPerDev, gn.ForwardFLOPs())
				}
				if p.WeightBytesPerDev < 0 || p.WeightBytesPerDev > gn.WeightBytes() {
					t.Errorf("%s %v %s: weight bytes %d out of range", name, gn, p.Name, p.WeightBytesPerDev)
				}
				if len(p.WeightSpecs) != len(gn.Weights) {
					t.Errorf("%s %v %s: %d weight specs for %d weights", name, gn, p.Name, len(p.WeightSpecs), len(gn.Weights))
				}
				for _, e := range append(append([]comm.Event{}, p.FwdComm...), p.BwdComm...) {
					if e.Bytes < 0 || e.W < 2 {
						t.Errorf("%s %v %s: bad event %v", name, gn, p.Name, e)
					}
				}
			}
		}
	}
}
