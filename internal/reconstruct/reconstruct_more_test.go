package reconstruct

import (
	"testing"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
)

func TestReconstructExpertParallelMoE(t *testing.T) {
	src, err := models.Build("moe-380M")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := baselines.GShardExpert(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.PerDevice.Validate(); err != nil {
		t.Fatal(err)
	}
	// All-to-all operators must appear for the dispatch/combine pairs.
	a2a := 0
	for _, n := range pg.Collectives {
		if n.Kind == graph.OpAllToAll {
			a2a++
		}
	}
	if a2a == 0 {
		t.Error("expert-parallel reconstruction should contain all-to-alls")
	}
	// Expert weights must be sharded to E/w on device: the (8,1024,4096)
	// tensors become (1,1024,4096).
	found := false
	for _, n := range pg.PerDevice.Nodes {
		for _, in := range n.Inputs {
			if in.Kind == graph.Weight && in.Shape.Rank() == 3 && in.Shape[0] == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Error("expert weights should be sharded to one expert per device")
	}
}

func TestReconstructPreservesLayerTags(t *testing.T) {
	s := megatronT5(t)
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, n := range pg.PerDevice.Nodes {
		layers[n.Layer] = true
	}
	if !layers["enc.0"] || !layers["lm_head"] {
		t.Errorf("layer tags lost: %v", layers)
	}
}

func TestReconstructAnnotatesGraphNodeIDs(t *testing.T) {
	s := megatronT5(t)
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, n := range pg.PerDevice.Nodes {
		if _, ok := n.Attrs["graphnode"]; ok {
			tagged++
		}
	}
	if tagged != len(s.Graph.Nodes) {
		t.Errorf("%d ops tagged, want one per GraphNode (%d)", tagged, len(s.Graph.Nodes))
	}
}
