package ir

import (
	"testing"

	"tapas/internal/graph"
)

func TestShardSpecBasics(t *testing.T) {
	if !Replicated().IsReplicated() {
		t.Error("Replicated should be replicated")
	}
	if Split(2).IsReplicated() {
		t.Error("Split(2) should not be replicated")
	}
	if Replicated().String() != "R" || Split(1).String() != "S1" {
		t.Errorf("String: %s %s", Replicated(), Split(1))
	}
	if !Split(0).Equal(Split(0)) || Split(0).Equal(Split(1)) {
		t.Error("Equal broken")
	}
}

// mkOp builds a standalone node for propagation tests.
func mkOp(kind graph.OpKind, in, out graph.Shape, attrs map[string]int64) *graph.Node {
	return &graph.Node{
		Kind:    kind,
		Inputs:  []*graph.Tensor{graph.NewTensor("in", graph.Activation, graph.F32, in)},
		Outputs: []*graph.Tensor{graph.NewTensor("out", graph.Activation, graph.F32, out)},
		Attrs:   attrs,
	}
}

func TestPropagateElementwise(t *testing.T) {
	n := mkOp(graph.OpReLU, graph.NewShape(8, 16), graph.NewShape(8, 16), nil)
	for _, in := range []ShardSpec{Replicated(), Split(0), Split(1)} {
		out, ok, _ := PropagateSpec(n, in)
		if !ok || !out.Equal(in) {
			t.Errorf("ReLU should pass %v through, got %v ok=%v", in, out, ok)
		}
	}
}

func TestPropagateSoftmaxLastAxisInvalid(t *testing.T) {
	n := mkOp(graph.OpSoftmax, graph.NewShape(8, 16, 32), graph.NewShape(8, 16, 32), nil)
	if _, ok, _ := PropagateSpec(n, Split(2)); ok {
		t.Error("softmax over split axis must be invalid")
	}
	if out, ok, _ := PropagateSpec(n, Split(1)); !ok || !out.Equal(Split(1)) {
		t.Errorf("softmax with non-normalized split should pass: %v %v", out, ok)
	}
}

func TestPropagateLayerNormLastAxisInvalid(t *testing.T) {
	n := mkOp(graph.OpLayerNorm, graph.NewShape(8, 16, 32), graph.NewShape(8, 16, 32), nil)
	if _, ok, _ := PropagateSpec(n, Split(2)); ok {
		t.Error("layernorm over split feature axis must be invalid")
	}
}

func TestPropagateReshapeHeadSplit(t *testing.T) {
	// (B,S,D) → (B,H,S,Dh): the attention head split remaps hidden→heads.
	n := mkOp(graph.OpReshape, graph.NewShape(8, 128, 1024), graph.NewShape(8, 16, 128, 64), nil)
	out, ok, _ := PropagateSpec(n, Split(2))
	if !ok || !out.Equal(Split(1)) {
		t.Errorf("hidden split should map to head split, got %v ok=%v", out, ok)
	}
	out, ok, _ = PropagateSpec(n, Split(0))
	if !ok || !out.Equal(Split(0)) {
		t.Errorf("batch split should survive reshape, got %v ok=%v", out, ok)
	}
	if _, ok, _ := PropagateSpec(n, Split(1)); ok {
		t.Error("sequence split through head reshape should be invalid")
	}
}

func TestPropagateReshapeHeadMerge(t *testing.T) {
	// (B,H,S,Dh) → (B,S,D): head split maps back to hidden split.
	n := mkOp(graph.OpReshape, graph.NewShape(8, 16, 128, 64), graph.NewShape(8, 128, 1024), nil)
	out, ok, _ := PropagateSpec(n, Split(1))
	if !ok || !out.Equal(Split(2)) {
		t.Errorf("head split should map to hidden split, got %v ok=%v", out, ok)
	}
}

func TestInverseSpecRoundTrip(t *testing.T) {
	// InverseSpec(PropagateSpec(s)) == s for the reshape mappings.
	n := mkOp(graph.OpReshape, graph.NewShape(8, 128, 1024), graph.NewShape(8, 16, 128, 64), nil)
	for _, s := range []ShardSpec{Replicated(), Split(0), Split(2)} {
		fwd, ok, _ := PropagateSpec(n, s)
		if !ok {
			t.Fatalf("forward %v failed", s)
		}
		back, ok := InverseSpec(n, fwd)
		if !ok || !back.Equal(s) {
			t.Errorf("round trip %v → %v → %v", s, fwd, back)
		}
	}
}

func TestPropagateBatchMatMulContraction(t *testing.T) {
	n := mkOp(graph.OpBatchMatMul, graph.NewShape(8, 16, 128, 64), graph.NewShape(8, 16, 128, 128), nil)
	if _, ok, _ := PropagateSpec(n, Split(3)); ok {
		t.Error("split contraction axis must be invalid")
	}
	out, ok, _ := PropagateSpec(n, Split(1))
	if !ok || !out.Equal(Split(1)) {
		t.Errorf("head split should pass through batchmatmul: %v %v", out, ok)
	}
}

func TestPropagateConcatAxis(t *testing.T) {
	n := mkOp(graph.OpConcat, graph.NewShape(2, 8, 8, 64), graph.NewShape(2, 8, 8, 128), map[string]int64{"axis": 3})
	if _, ok, _ := PropagateSpec(n, Split(3)); ok {
		t.Error("concat along split axis must be invalid")
	}
	if out, ok, _ := PropagateSpec(n, Split(0)); !ok || !out.Equal(Split(0)) {
		t.Errorf("batch split through concat: %v %v", out, ok)
	}
}

func TestPropagateGlobalAvgPool(t *testing.T) {
	n := mkOp(graph.OpAvgPool, graph.NewShape(8, 7, 7, 2048), graph.NewShape(8, 2048), nil)
	out, ok, _ := PropagateSpec(n, Split(3))
	if !ok || !out.Equal(Split(1)) {
		t.Errorf("channel split should map to feature split: %v %v", out, ok)
	}
	if _, ok, _ := PropagateSpec(n, Split(1)); ok {
		t.Error("spatial split through GAP must be invalid")
	}
}

func TestPropagateCrossEntropy(t *testing.T) {
	n := mkOp(graph.OpCrossEntropy, graph.NewShape(8, 128, 32128), graph.NewShape(8, 128), nil)
	out, ok, _ := PropagateSpec(n, Split(2))
	if !ok || !out.IsReplicated() {
		t.Errorf("vocab-split logits into loss should collapse to replicated: %v %v", out, ok)
	}
	out, ok, _ = PropagateSpec(n, Split(0))
	if !ok || !out.Equal(Split(0)) {
		t.Errorf("batch split through loss: %v %v", out, ok)
	}
}

func TestPropagateReplicatedAlwaysOK(t *testing.T) {
	kinds := []graph.OpKind{graph.OpSoftmax, graph.OpLayerNorm, graph.OpReshape,
		graph.OpBatchMatMul, graph.OpConcat, graph.OpTopK}
	for _, k := range kinds {
		n := mkOp(k, graph.NewShape(4, 8, 16), graph.NewShape(4, 8, 16), nil)
		out, ok, _ := PropagateSpec(n, Replicated())
		if !ok || !out.IsReplicated() {
			t.Errorf("%v: replicated should always propagate", k)
		}
	}
}

// TestPatternsForNodeWithoutOutputs: a hand-built graph whose last
// operator has no outputs groups into a GraphNode without out-tensors.
// PropagateSpec refuses that operator with an error instead of
// indexing its missing output, so the node's menu is replicate alone.
func TestPatternsForNodeWithoutOutputs(t *testing.T) {
	b := graph.NewBuilder("sink")
	x := b.Input("x", graph.F32, graph.NewShape(8, 64))
	y := b.Dense("fc", x, 64, graph.OpReLU)
	b.OpMulti(graph.OpCrossEntropy, "sink", []*graph.Tensor{y}, nil, nil)
	g, err := Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	var sink *GraphNode
	for _, gn := range g.Nodes {
		if len(gn.OutTensors) == 0 {
			sink = gn
		}
	}
	if sink == nil || sink.InShape() == nil {
		t.Fatal("no GraphNode with an input and no outputs to exercise")
	}
	for _, op := range sink.Ops {
		if len(op.Outputs) > 0 {
			continue
		}
		if _, ok, err := PropagateSpec(op, Split(0)); err == nil || ok {
			t.Errorf("PropagateSpec over %q without outputs: ok=%v err=%v, want an error", op.Name, ok, err)
		}
	}
	ps := PatternsFor(sink, 4)
	if len(ps) != 1 || ps[0].Name != "replicate" {
		t.Errorf("menu of a node without outputs: %d patterns, want replicate alone", len(ps))
	}
}
