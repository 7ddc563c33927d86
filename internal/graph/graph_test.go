package graph

import (
	"strings"
	"testing"
)

// buildDenseChain constructs n dense layers in sequence, each in its own
// layer tag, and returns the graph. It mirrors the paper's Figure 3 layer.
func buildDenseChain(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder("chain")
	x := b.Input("x", F32, NewShape(32, 64))
	for i := 0; i < n; i++ {
		b.SetLayer("dense." + string(rune('a'+i)))
		x = b.Dense("dense", x, 64, OpReLU)
	}
	if err := b.G.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return b.G
}

func TestGraphProducerConsumer(t *testing.T) {
	b := NewBuilder("pc")
	x := b.Input("x", F32, NewShape(4, 8))
	y := b.Op(OpReLU, "relu", x.Shape.Clone(), x)
	z := b.Op(OpIdentity, "id", y.Shape.Clone(), y)
	_ = z

	if p := b.G.Producer(x); p != nil {
		t.Errorf("input should have no producer, got %v", p)
	}
	if p := b.G.Producer(y); p == nil || p.Kind != OpReLU {
		t.Errorf("Producer(y) = %v, want ReLU node", p)
	}
	cs := b.G.Consumers(y)
	if len(cs) != 1 || cs[0].Kind != OpIdentity {
		t.Errorf("Consumers(y) = %v, want one Identity node", cs)
	}
}

func TestGraphTopoSort(t *testing.T) {
	g := buildDenseChain(t, 4)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	if len(order) != len(g.Nodes) {
		t.Fatalf("TopoSort returned %d nodes, want %d", len(order), len(g.Nodes))
	}
	pos := make(map[*Node]int)
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if p := g.Producer(in); p != nil && pos[p] >= pos[n] {
				t.Errorf("node %v at %d precedes its predecessor %v at %d", n, pos[n], p, pos[p])
			}
		}
	}
}

// TestGraphTopoSortRejectsMisnumberedNodes: TopoSort indexes its state by
// Node.ID, so a graph whose Nodes were reordered by hand, leaving an ID
// that is not the node's index, is an error rather than a wrong order.
func TestGraphTopoSortRejectsMisnumberedNodes(t *testing.T) {
	g := buildDenseChain(t, 2)
	g.Nodes[0], g.Nodes[1] = g.Nodes[1], g.Nodes[0]
	if _, err := g.TopoSort(); err == nil || !strings.Contains(err.Error(), "at index 0") {
		t.Fatalf("TopoSort of swapped nodes: err = %v, want an ID/index mismatch", err)
	}
}

func TestGraphDoubleProducePanics(t *testing.T) {
	g := New("dup")
	tns := NewTensor("t", Activation, F32, NewShape(2))
	g.AddNode(&Node{Name: "a", Kind: OpIdentity, Outputs: []*Tensor{tns}})
	defer func() {
		if recover() == nil {
			t.Error("second producer of the same tensor should panic")
		}
	}()
	g.AddNode(&Node{Name: "b", Kind: OpIdentity, Outputs: []*Tensor{tns}})
}

func TestGraphValidateDanglingActivation(t *testing.T) {
	g := New("dangling")
	orphan := NewTensor("orphan", Activation, F32, NewShape(2))
	g.AddNode(&Node{Name: "c", Kind: OpReLU, Inputs: []*Tensor{orphan},
		Outputs: []*Tensor{NewTensor("o", Activation, F32, NewShape(2))}})
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no producer") {
		t.Errorf("Validate = %v, want no-producer error", err)
	}
}

func TestGraphStats(t *testing.T) {
	g := buildDenseChain(t, 3)
	s := g.Stats()
	// Each dense layer = MatMul + BiasAdd + ReLU.
	if s.V != 9 {
		t.Errorf("V = %d, want 9", s.V)
	}
	if s.L != 3 {
		t.Errorf("L = %d, want 3", s.L)
	}
	// Each layer: W (64×64) + bias (64) params.
	want := int64(3 * (64*64 + 64))
	if s.Params != want {
		t.Errorf("Params = %d, want %d", s.Params, want)
	}
	if s.WeightBytes != want*4 {
		t.Errorf("WeightBytes = %d, want %d", s.WeightBytes, want*4)
	}
	if s.FwdFLOPs <= 0 {
		t.Error("FwdFLOPs should be positive")
	}
	// MatMul dominates: 3 layers × 2·32·64·64.
	if s.FwdFLOPs < 3*2*32*64*64 {
		t.Errorf("FwdFLOPs = %d, want at least the MatMul flops", s.FwdFLOPs)
	}
}

func TestGraphEdgesCount(t *testing.T) {
	g := buildDenseChain(t, 2)
	// Per layer: x→MatMul, MatMul→BiasAdd, BiasAdd→ReLU. The input tensor
	// has no producer, so edges are: layer-internal 2 each, plus
	// ReLU(1)→MatMul(2). Total = 2+2+1 = 5.
	if e := g.NumEdges(); e != 5 {
		t.Errorf("NumEdges = %d, want 5", e)
	}
}

func TestGraphLayers(t *testing.T) {
	g := buildDenseChain(t, 3)
	if l := g.Stats().L; l != 3 {
		t.Fatalf("Stats().L = %d, want 3 layers", l)
	}
	perLayer := map[string]int{}
	for _, n := range g.Nodes {
		if n.Layer != "" {
			perLayer[n.Layer]++
		}
	}
	for l, n := range perLayer {
		if n != 3 {
			t.Errorf("layer %q has %d nodes, want 3", l, n)
		}
	}
}

func TestNodeWeights(t *testing.T) {
	b := NewBuilder("w")
	x := b.Input("x", F32, NewShape(4, 8))
	y := b.Dense("d", x, 16, OpIdentity)
	_ = y
	var matmul *Node
	for _, n := range b.G.Nodes {
		if n.Kind == OpMatMul {
			matmul = n
		}
	}
	if matmul == nil {
		t.Fatal("no MatMul node")
	}
	ws := matmul.Weights()
	if len(ws) != 1 || !ws[0].Shape.Equal(NewShape(8, 16)) {
		t.Errorf("Weights() = %v, want one (8,16) weight", ws)
	}
}

func TestTensorBytes(t *testing.T) {
	tn := NewTensor("t", Weight, F32, NewShape(10, 10))
	if tn.Bytes() != 400 {
		t.Errorf("Bytes = %d, want 400", tn.Bytes())
	}
}

func TestForwardFLOPsMatMul(t *testing.T) {
	b := NewBuilder("fl")
	x := b.Input("x", F32, NewShape(8, 32))
	w := b.Weight("w", NewShape(32, 16))
	y := b.Op(OpMatMul, "mm", NewShape(8, 16), x, w)
	n := b.G.Producer(y)
	want := int64(2 * 8 * 32 * 16)
	if got := n.ForwardFLOPs(); got != want {
		t.Errorf("MatMul FLOPs = %d, want %d", got, want)
	}
}

func TestForwardFLOPsConv(t *testing.T) {
	b := NewBuilder("conv")
	x := b.Input("x", F32, NewShape(2, 16, 16, 3))
	y := b.Conv2D("c1", x, 3, 3, 8, 1, false)
	n := b.G.Producer(y)
	// 2 * kH*kW*Cin * outElems = 2*3*3*3 * (2*16*16*8)
	want := int64(2 * 3 * 3 * 3 * 2 * 16 * 16 * 8)
	if got := n.ForwardFLOPs(); got != want {
		t.Errorf("Conv FLOPs = %d, want %d", got, want)
	}
}

func TestOpKindString(t *testing.T) {
	if OpMatMul.String() != "MatMul" {
		t.Errorf("OpMatMul.String() = %q", OpMatMul.String())
	}
}
