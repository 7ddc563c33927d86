package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

// randomNet builds a random layered network: a stack of repeated blocks
// with randomized widths, activations and block structure, so the whole
// pipeline (grouping → mining → search → validation) is exercised on
// graphs nobody hand-tuned.
func randomNet(r *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("rand-%d", r.Int63()))
	batch := int64(8 * (1 + r.Intn(4)))
	width := int64(64 << r.Intn(3)) // 64, 128, 256
	x := b.Input("x", graph.F32, graph.NewShape(batch, width))

	acts := []graph.OpKind{graph.OpReLU, graph.OpGeLU, graph.OpTanh, graph.OpIdentity}
	blocks := 2 + r.Intn(5)
	perBlock := 1 + r.Intn(3)
	act := acts[r.Intn(len(acts))]
	residual := r.Intn(2) == 0

	for bi := 0; bi < blocks; bi++ {
		b.SetLayer(fmt.Sprintf("block.%d", bi))
		in := x
		for li := 0; li < perBlock; li++ {
			x = b.Dense(fmt.Sprintf("fc%d", li), x, width, act)
		}
		if residual {
			x = b.Residual("res", in, x)
		}
	}
	b.SetLayer("head")
	classes := int64(16 << r.Intn(6)) // 16..512
	x = b.Dense("head", x, classes, graph.OpIdentity)
	b.Op(graph.OpCrossEntropy, "loss", graph.NewShape(batch), x)
	return b.G
}

func TestPropertyRandomNetsSearchable(t *testing.T) {
	cl := cluster.V100x8()
	model := cost.Default(cl)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomNet(r)
		if err := src.Validate(); err != nil {
			t.Logf("seed %d: invalid source graph: %v", seed, err)
			return false
		}
		g, err := ir.Group(src)
		if err != nil {
			t.Logf("seed %d: group: %v", seed, err)
			return false
		}
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
		if errs := mining.CoverageCheck(g, classes); len(errs) != 0 {
			t.Logf("seed %d: fold: %v", seed, errs[0])
			return false
		}
		s, _, err := SearchFolded(context.Background(), g, classes, model, DefaultEnumOptions(8), cl.MemoryPerGP)
		if err != nil {
			t.Logf("seed %d: search: %v", seed, err)
			return false
		}
		// The found strategy always passes the global static analysis.
		if _, err := Validate(g, s.Assign, 8, true); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		if s.MemPerDev <= 0 || s.Cost.Total() <= 0 {
			t.Logf("seed %d: degenerate strategy", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertySearchNeverBeatenByItsOwnCandidatePool(t *testing.T) {
	// The assembled plan's cost never exceeds the pure-replicate plan —
	// replicate is always in every menu, so assembly can only improve it.
	cl := cluster.V100x8()
	model := cost.Default(cl)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomNet(r)
		g, err := ir.Group(src)
		if err != nil {
			return false
		}
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
		s, _, err := SearchFolded(context.Background(), g, classes, model, DefaultEnumOptions(8), cl.MemoryPerGP)
		if err != nil {
			return false
		}
		repl := make([]*ir.Pattern, len(g.Nodes))
		for _, gn := range g.Nodes {
			repl[gn.ID] = ir.PatternsFor(gn, 8)[0]
		}
		events, err := Validate(g, repl, 8, true)
		if err != nil {
			return false
		}
		replCost := model.StrategyCost(repl, events).Total()
		return s.Cost.Total() <= replCost*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEnumerationCandidatesAllValid(t *testing.T) {
	// Every candidate EnumerateInstance emits for a whole random graph
	// passes the independent global validator.
	cl := cluster.V100x8()
	model := cost.Default(cl)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomNet(r)
		g, err := ir.Group(src)
		if err != nil {
			return false
		}
		opt := DefaultEnumOptions(8)
		opt.MaxCandidates = 128
		cands, _ := EnumerateInstance(context.Background(), g, g.TopoOrder(), model, opt)
		if len(cands) == 0 {
			return false
		}
		for _, c := range cands {
			if _, err := Validate(g, c.Patterns, 8, true); err != nil {
				t.Logf("seed %d: candidate invalid: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeterministicSearch(t *testing.T) {
	cl := cluster.V100x8()
	model := cost.Default(cl)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomNet(r)
		g, err := ir.Group(src)
		if err != nil {
			return false
		}
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
		a, _, err := SearchFolded(context.Background(), g, classes, model, DefaultEnumOptions(8), cl.MemoryPerGP)
		if err != nil {
			return false
		}
		b, _, err := SearchFolded(context.Background(), g, classes, model, DefaultEnumOptions(8), cl.MemoryPerGP)
		if err != nil {
			return false
		}
		return a.Describe() == b.Describe() && a.Cost.Total() == b.Cost.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
