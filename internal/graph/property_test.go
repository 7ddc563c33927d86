package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomChain builds a random sequential network of dense / conv /
// elementwise stages for structural property tests.
func randomChain(r *rand.Rand) *Graph {
	b := NewBuilder(fmt.Sprintf("chain-%d", r.Int63()))
	if r.Intn(2) == 0 {
		// Dense stack.
		width := int64(16 << r.Intn(4))
		x := b.Input("x", F32, NewShape(int64(4+4*r.Intn(7)), width))
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			b.SetLayer(fmt.Sprintf("l%d", i))
			acts := []OpKind{OpReLU, OpGeLU, OpIdentity}
			x = b.Dense("fc", x, width, acts[r.Intn(3)])
		}
		return b.G
	}
	// Conv stack.
	img := int64(16 << r.Intn(2))
	x := b.Input("img", F32, NewShape(int64(2+2*r.Intn(3)), img, img, 3))
	n := 1 + r.Intn(4)
	c := int64(8)
	for i := 0; i < n; i++ {
		b.SetLayer(fmt.Sprintf("l%d", i))
		x = b.Conv2D("conv", x, 3, 3, c, 1, r.Intn(2) == 0)
		c *= 2
	}
	return b.G
}

func TestPropertyRandomChainsValid(t *testing.T) {
	f := func(seed int64) bool {
		g := randomChain(rand.New(rand.NewSource(seed)))
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTopoSortIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := randomChain(rand.New(rand.NewSource(seed)))
		order, err := g.TopoSort()
		if err != nil || len(order) != len(g.Nodes) {
			return false
		}
		seen := map[*Node]bool{}
		for _, n := range order {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStatsNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		g := randomChain(rand.New(rand.NewSource(seed)))
		s := g.Stats()
		return s.V > 0 && s.E >= 0 && s.Params > 0 &&
			s.WeightBytes == 4*s.Params && s.FwdFLOPs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEdgesMatchPredSuccCounts(t *testing.T) {
	// Σ|Succs| == Σ distinct producer-side preds == NumEdges as built.
	f := func(seed int64) bool {
		g := randomChain(rand.New(rand.NewSource(seed)))
		succTotal, predTotal := 0, 0
		for _, n := range g.Nodes {
			succs, preds := map[*Node]bool{}, map[*Node]bool{}
			for _, t := range n.Outputs {
				for _, c := range g.Consumers(t) {
					succs[c] = true
				}
			}
			for _, t := range n.Inputs {
				if p := g.Producer(t); p != nil {
					preds[p] = true
				}
			}
			succTotal += len(succs)
			predTotal += len(preds)
		}
		// For chains every tensor has at most one consumer, so all three
		// counts agree.
		return succTotal == predTotal && succTotal == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
