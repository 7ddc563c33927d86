package reconstruct

import (
	"testing"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/strategy"
)

// weightBytesPerDevice sums the per-device weight storage of the
// reconstructed graph, counting shared tensors once. It must agree with
// the strategy's pattern accounting.
func weightBytesPerDevice(pg *ParallelGraph) int64 {
	var total int64
	seen := map[*graph.Tensor]bool{}
	for _, n := range pg.PerDevice.Nodes {
		for _, t := range n.Inputs {
			if t.Kind == graph.Weight && !seen[t] {
				seen[t] = true
				total += t.Bytes()
			}
		}
	}
	return total
}

func megatronT5(t *testing.T) *strategy.Strategy {
	t.Helper()
	src, err := models.Build("t5-100M")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := baselines.Megatron(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReconstructProducesValidGraph(t *testing.T) {
	s := megatronT5(t)
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.PerDevice.Validate(); err != nil {
		t.Fatalf("per-device graph invalid: %v", err)
	}
	if len(pg.PerDevice.Nodes) < len(s.Graph.Nodes) {
		t.Errorf("per-device graph has %d ops for %d GraphNodes", len(pg.PerDevice.Nodes), len(s.Graph.Nodes))
	}
}

func TestReconstructInsertsCollectives(t *testing.T) {
	s := megatronT5(t)
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	// Megatron emits a forward all-reduce per row-parallel projection
	// plus vocab-parallel embedding reductions.
	wantFwd := 0
	for _, p := range s.Assign {
		wantFwd += len(p.FwdComm)
	}
	wantFwd += len(s.Reshard)
	ars := 0
	for _, n := range pg.Collectives {
		if n.Kind == graph.OpAllReduce || n.Kind == graph.OpAllGather ||
			n.Kind == graph.OpReduceScatter || n.Kind == graph.OpAllToAll {
			ars++
		}
	}
	if ars != wantFwd {
		t.Errorf("collective ops = %d, want %d", ars, wantFwd)
	}
	if ars == 0 {
		t.Error("Megatron reconstruction must insert collectives")
	}
}

func TestReconstructShardsWeights(t *testing.T) {
	s := megatronT5(t)
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	// The per-device weight bytes must match the strategy's accounting.
	var want int64
	seen := map[*graph.Tensor]bool{}
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		fresh := false
		for _, w := range gn.Weights {
			if !seen[w] {
				seen[w] = true
				fresh = true
			}
		}
		if fresh || len(gn.Weights) == 0 {
			want += p.WeightBytesPerDev
		}
	}
	if got := weightBytesPerDevice(pg); got != want {
		t.Errorf("per-device weight bytes = %d, want %d", got, want)
	}
	// And must be well below the full model (Megatron shards the bulk).
	full := s.Graph.Src.Stats().WeightBytes
	if got := weightBytesPerDevice(pg); got >= full {
		t.Errorf("sharded weights (%d) should be below full model (%d)", got, full)
	}
}

func TestReconstructShardShape(t *testing.T) {
	s := graph.NewShape(8, 512, 1024)
	if got := shardShape(s, ir.Split(2), 8); !got.Equal(graph.NewShape(8, 512, 128)) {
		t.Errorf("shardShape split = %v", got)
	}
	if got := shardShape(s, ir.Replicated(), 8); !got.Equal(s) {
		t.Errorf("shardShape replicated = %v", got)
	}
	// Non-divisible axes stay whole rather than fracturing.
	if got := shardShape(graph.NewShape(3, 5), ir.Split(1), 8); !got.Equal(graph.NewShape(3, 5)) {
		t.Errorf("shardShape non-divisible = %v", got)
	}
}

func TestReconstructDataParallelShapes(t *testing.T) {
	src, _ := models.Build("resnet-26M")
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := baselines.DataParallel(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	// DP splits the batch: per-device activations must carry batch 32
	// (256/8) where the original had 256.
	found := false
	for _, n := range pg.PerDevice.Nodes {
		for _, o := range n.Outputs {
			if o.Shape.Rank() == 4 && o.Shape[0] == 32 {
				found = true
			}
		}
	}
	if !found {
		t.Error("DP reconstruction should shard the batch axis 256 → 32")
	}
}

// TestCountMatchesReconstruct: Count returns the sizes of the graph
// Reconstruct builds, without allocating, also for the events
// Reconstruct skips — kinds with no collective operator, and forward
// collectives of a node with no output to consume (here a sink op
// appended to a dense layer) — and fails on an unassigned node with
// Reconstruct's error.
func TestCountMatchesReconstruct(t *testing.T) {
	b := graph.NewBuilder("sink")
	x := b.Input("x", graph.F32, graph.NewShape(8, 64))
	y := b.Dense("fc", x, 64, graph.OpReLU)
	b.OpMulti(graph.OpCrossEntropy, "sink", []*graph.Tensor{y}, nil, nil)
	g, err := ir.Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	const w = 4
	s := &strategy.Strategy{Graph: g, W: w, Assign: make([]*ir.Pattern, len(g.Nodes))}
	noOutputs := 0
	for i, gn := range g.Nodes {
		var p *ir.Pattern
		if len(gn.OutTensors) == 0 {
			// No menu offers a pattern for a node without outputs.
			p = &ir.Pattern{Name: "sink", W: w, WeightSpecs: make([]ir.ShardSpec, len(gn.Weights))}
			noOutputs++
		} else {
			p = ir.PatternsFor(gn, w)[0].Clone()
		}
		p.FwdComm = append(p.FwdComm,
			comm.Event{Kind: comm.AllReduce, Bytes: 4096, W: w},
			comm.Event{Kind: comm.Broadcast, Bytes: 4096, W: w})
		s.Assign[i] = p
	}
	if noOutputs == 0 {
		t.Fatal("no GraphNode without outputs to exercise")
	}
	s.Reshard = []comm.Event{{Kind: comm.None, Bytes: 4096, W: w}, {Kind: comm.AllGather, Bytes: 4096, W: w}}

	pg, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	nodes, collectives, err := Count(s)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != len(pg.PerDevice.Nodes) || collectives != len(pg.Collectives) {
		t.Errorf("Count = %d nodes / %d collectives, Reconstruct built %d / %d",
			nodes, collectives, len(pg.PerDevice.Nodes), len(pg.Collectives))
	}
	if want := len(g.Nodes) - noOutputs + 1; collectives != want {
		t.Errorf("%d collectives, want %d: one all-reduce per node with an output, one reshard all-gather", collectives, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _, _ = Count(s) }); allocs != 0 {
		t.Errorf("Count made %.0f allocations, want 0", allocs)
	}

	s.Assign[len(s.Assign)-1] = nil
	_, rerr := Reconstruct(s)
	_, _, cerr := Count(s)
	if rerr == nil || cerr == nil || rerr.Error() != cerr.Error() {
		t.Errorf("unassigned node: Reconstruct %v, Count %v, want one error", rerr, cerr)
	}
}
