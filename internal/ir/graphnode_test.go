package ir

import (
	"slices"
	"testing"

	"tapas/internal/graph"
	"tapas/internal/models"
)

// denseLayerGraph builds the paper's Figure-3 example: a single dense
// layer MatMul+BiasAdd+ReLU.
func denseLayerGraph() *graph.Graph {
	b := graph.NewBuilder("dense")
	b.SetLayer("dense.0")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	b.Dense("dense", x, 128, graph.OpReLU)
	return b.G
}

func TestGroupDenseLayer(t *testing.T) {
	g, err := Group(denseLayerGraph())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 1 {
		t.Fatalf("dense layer should fold into one GraphNode, got %d: %v", len(g.Nodes), g.Nodes)
	}
	gn := g.Nodes[0]
	if gn.Kind != KDense {
		t.Errorf("kind = %v, want Dense", gn.Kind)
	}
	if len(gn.Ops) != 3 {
		t.Errorf("ops = %d, want 3 (MatMul+BiasAdd+ReLU)", len(gn.Ops))
	}
	if len(gn.Weights) != 2 {
		t.Errorf("weights = %d, want 2 (W + bias)", len(gn.Weights))
	}
	if !gn.InShape().Equal(graph.NewShape(32, 64)) {
		t.Errorf("InShape = %v", gn.InShape())
	}
	if !gn.OutShape().Equal(graph.NewShape(32, 128)) {
		t.Errorf("OutShape = %v", gn.OutShape())
	}
}

func TestGroupT5EncoderLayerStructure(t *testing.T) {
	g, err := Group(models.T5(models.T5Sized("100M")))
	if err != nil {
		t.Fatal(err)
	}
	// Every op must be owned by exactly one GraphNode.
	counted := 0
	for _, gn := range g.Nodes {
		counted += len(gn.Ops)
	}
	if counted != len(g.Src.Nodes) {
		t.Fatalf("grouping covered %d ops, graph has %d", counted, len(g.Src.Nodes))
	}
	// Grouping must shrink the graph (the paper's C× reduction).
	v, _ := g.Stats()
	if v >= len(g.Src.Nodes) {
		t.Errorf("GraphNode count %d should be < op count %d", v, len(g.Src.Nodes))
	}
	// The QKV projections absorb their head-split reshapes.
	var qDense *GraphNode
	for _, gn := range g.Nodes {
		if gn.Anchor != nil && gn.Anchor.Kind == graph.OpMatMul &&
			gn.Layer == "enc.0" && len(gn.Post) > 0 {
			for _, p := range gn.Post {
				if p.Kind == graph.OpReshape {
					qDense = gn
				}
			}
		}
	}
	if qDense == nil {
		t.Error("expected a Dense GraphNode in enc.0 absorbing a Reshape suffix")
	}
}

func TestGroupRepeatedLayersSameSignature(t *testing.T) {
	g, err := Group(models.T5(models.T5Sized("100M")))
	if err != nil {
		t.Fatal(err)
	}
	// Observation #2: GraphNodes of repeated encoder layers must carry
	// identical signatures layer over layer.
	sigsByLayer := map[string][]string{}
	for _, gn := range g.Nodes {
		if gn.Layer == "enc.0" || gn.Layer == "enc.1" {
			sigsByLayer[gn.Layer] = append(sigsByLayer[gn.Layer], gn.Signature())
		}
	}
	a, b := sigsByLayer["enc.0"], sigsByLayer["enc.1"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("layer GraphNode counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("signature %d differs:\n enc.0: %s\n enc.1: %s", i, a[i], b[i])
		}
	}
}

func TestGroupEdgesFormDAG(t *testing.T) {
	g, err := Group(models.GPT(models.GPTSmall()))
	if err != nil {
		t.Fatal(err)
	}
	// Edges must point forward in ID order (construction sorts
	// topologically).
	for _, gn := range g.Nodes {
		for _, s := range g.Succs(gn) {
			if s.ID <= gn.ID {
				t.Errorf("edge %v → %v goes backwards", gn, s)
			}
		}
	}
	if g.NumEdges() == 0 {
		t.Error("GPT GraphNode graph should have edges")
	}
}

func TestGroupMoEKinds(t *testing.T) {
	g, err := Group(models.MoE(models.MoESized("380M")))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[NodeKind]int{}
	for _, gn := range g.Nodes {
		kinds[gn.Kind]++
	}
	for _, k := range []NodeKind{KDense, KEmbedding, KRouter, KDispatch, KCombine, KExpert, KGlue} {
		if kinds[k] == 0 {
			t.Errorf("MoE grouping missing kind %v (got %v)", k, kinds)
		}
	}
	// 4 MoE layers × 2 expert matmuls each.
	if kinds[KExpert] != 8 {
		t.Errorf("expert nodes = %d, want 8", kinds[KExpert])
	}
}

func TestGroupOwnerLookup(t *testing.T) {
	src := denseLayerGraph()
	g, err := Group(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range src.Nodes {
		if g.NodeOf(op) == nil {
			t.Errorf("op %v has no owner", op)
		}
	}
	// The owner table is indexed by operator ID, which another graph's
	// operators share: they have no owner here.
	for _, op := range denseLayerGraph().Nodes {
		if gn := g.NodeOf(op); gn != nil {
			t.Errorf("op %v of another graph is owned by %v", op, gn)
		}
	}
}

func TestGraphNodeFootprints(t *testing.T) {
	g, _ := Group(denseLayerGraph())
	gn := g.Nodes[0]
	wantW := int64((64*128 + 128) * 4)
	if gn.WeightBytes() != wantW {
		t.Errorf("WeightBytes = %d, want %d", gn.WeightBytes(), wantW)
	}
	if gn.ForwardFLOPs() < 2*32*64*128 {
		t.Errorf("FLOPs = %d too small", gn.ForwardFLOPs())
	}
	if gn.OutBytes() != 32*128*4 {
		t.Errorf("OutBytes = %d, want %d", gn.OutBytes(), 32*128*4)
	}
}

// TestAdjacencyOrderedAndConsistent pins what the miner's positional
// replay and canonical hash read from the ID-indexed adjacency tables, on
// every registered model: IDs are the dense index into Nodes, Succs is
// strictly ID-ascending (so an instance's internal edges come out of
// canonicalHash already sorted), Preds lists each producer once in
// InTensors order, and the two tables describe the same edge set.
func TestAdjacencyOrderedAndConsistent(t *testing.T) {
	for _, name := range models.Names() {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Group(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.succs) != len(g.Nodes) || len(g.preds) != len(g.Nodes) {
			t.Fatalf("%s: adjacency tables sized %d/%d for %d nodes", name, len(g.succs), len(g.preds), len(g.Nodes))
		}
		edges := 0
		for i, gn := range g.Nodes {
			if gn.ID != i {
				t.Fatalf("%s: Nodes[%d].ID = %d", name, i, gn.ID)
			}
			ss := g.Succs(gn)
			for k, s := range ss {
				if s.ID <= gn.ID || (k > 0 && ss[k-1].ID >= s.ID) {
					t.Errorf("%s: Succs(%v) not strictly ascending after its node: %v", name, gn, ss)
					break
				}
				if !slices.Contains(g.Preds(s), gn) {
					t.Errorf("%s: %v in Succs(%v) but not the reverse", name, s, gn)
				}
			}
			// Preds in first-use order: replay gn's InTensors.
			var want []*GraphNode
			for _, in := range gn.InTensors {
				if p := src.Producer(in); p != nil {
					if from := g.NodeOf(p); from != gn && !slices.Contains(want, from) {
						want = append(want, from)
					}
				}
			}
			if !slices.Equal(g.Preds(gn), want) {
				t.Errorf("%s: Preds(%v) = %v, want InTensors order %v", name, gn, g.Preds(gn), want)
			}
			for _, p := range g.Preds(gn) {
				if !slices.Contains(g.Succs(p), gn) {
					t.Errorf("%s: %v in Preds(%v) but not the reverse", name, p, gn)
				}
			}
			edges += len(ss)
		}
		if edges != g.NumEdges() {
			t.Errorf("%s: counted %d edges, NumEdges %d", name, edges, g.NumEdges())
		}
	}
}
