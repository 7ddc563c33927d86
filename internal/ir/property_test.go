package ir

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"tapas/internal/graph"
)

// randomStack builds a random dense stack with varied divisibility so
// pattern generation hits both available and omitted splits.
func randomStack(r *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(fmt.Sprintf("stack-%d", r.Int63()))
	widths := []int64{63, 64, 96, 128, 100} // mixed divisibility by 8
	batch := []int64{7, 8, 16, 24}[r.Intn(4)]
	x := b.Input("x", graph.F32, graph.NewShape(batch, widths[r.Intn(len(widths))]))
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		b.SetLayer(fmt.Sprintf("l%d", i))
		x = b.Dense("fc", x, widths[r.Intn(len(widths))], graph.OpReLU)
	}
	return b.G
}

func TestPropertyGroupCoversEveryOp(t *testing.T) {
	f := func(seed int64) bool {
		src := randomStack(rand.New(rand.NewSource(seed)))
		g, err := Group(src)
		if err != nil {
			return false
		}
		owned := 0
		for _, gn := range g.Nodes {
			owned += len(gn.Ops)
			for _, op := range gn.Ops {
				if g.NodeOf(op) != gn {
					return false
				}
			}
		}
		return owned == len(src.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPatternsAlwaysIncludeReplicate(t *testing.T) {
	f := func(seed int64) bool {
		src := randomStack(rand.New(rand.NewSource(seed)))
		g, err := Group(src)
		if err != nil {
			return false
		}
		for _, gn := range g.Nodes {
			for _, w := range []int{1, 2, 8} {
				ps := PatternsFor(gn, w)
				if len(ps) == 0 || ps[0].Name != "replicate" {
					return false
				}
				// Replicate is the identity: full footprint, no comm.
				rep := ps[0]
				if rep.FLOPsPerDev != gn.ForwardFLOPs() ||
					rep.WeightBytesPerDev != gn.WeightBytes() ||
					len(rep.FwdComm)+len(rep.BwdComm) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySplitsRespectDivisibility(t *testing.T) {
	// Any pattern that splits a weight must split it exactly.
	f := func(seed int64) bool {
		src := randomStack(rand.New(rand.NewSource(seed)))
		g, err := Group(src)
		if err != nil {
			return false
		}
		const w = 8
		for _, gn := range g.Nodes {
			for _, p := range PatternsFor(gn, w) {
				for i, spec := range p.WeightSpecs {
					if spec.IsReplicated() {
						continue
					}
					if !gn.Weights[i].Shape.Divisible(spec.Axis, w) {
						return false
					}
				}
				if !p.In.IsReplicated() && len(gn.InTensors) > 0 {
					in := gn.InTensors[0].Shape
					if p.In.Axis < in.Rank() && !in.Divisible(p.In.Axis, w) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySignatureStableAcrossCalls(t *testing.T) {
	f := func(seed int64) bool {
		src := randomStack(rand.New(rand.NewSource(seed)))
		g, err := Group(src)
		if err != nil {
			return false
		}
		for _, gn := range g.Nodes {
			if gn.Signature() != gn.Signature() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// renderPattern flattens every field of a Pattern into one comparable
// string (In2 dereferenced so the render never depends on pointer
// identity). Used to detect in-place mutation of memo-shared patterns.
func renderPattern(p *Pattern) string {
	in2 := "nil"
	if p.In2 != nil {
		in2 = fmt.Sprintf("%v", *p.In2)
	}
	return fmt.Sprintf("%s w=%d in=%v out=%v in2=%s ws=%v fwd=%v bwd=%v flops=%d wbytes=%d obytes=%d src=%q",
		p.Name, p.W, p.In, p.Out, in2, p.WeightSpecs, p.FwdComm, p.BwdComm,
		p.FLOPsPerDev, p.WeightBytesPerDev, p.OutBytesPerDev, p.SRC)
}

// TestPropertyPatternsForConcurrentImmutable pins the memo's sharing
// contract: PatternsFor hands every caller the one memoized menu of a
// (node, w) pair — the same slice, the same *Pattern values — and
// callers only read it (the enumerator sorts a private copy). The test
// snapshots every menu, then hammers PatternsFor from many goroutines
// while reading the menus the way assembly does — name scans, cost-field
// reads. Every call must return the memoized slice itself, the same one
// for every node of a menu cell, and afterwards every menu must hold the
// same patterns in the same order, each rendering exactly as before. Run
// under -race this also proves the memo itself is data-race free. (That a
// full folded search leaves the menus unchanged is
// TestSearchFoldedLeavesMenusUnchanged in the strategy package.)
func TestPropertyPatternsForConcurrentImmutable(t *testing.T) {
	// A varied random stack, then six equal dense layers: the last five
	// share one menu cell, so goroutines on different nodes meet in one
	// memo.
	b := graph.NewBuilder("stack")
	x := b.Input("x", graph.F32, graph.NewShape(16, 96))
	for i := 0; i < 6; i++ {
		b.SetLayer(fmt.Sprintf("r%d", i))
		x = b.Dense("fc", x, 96, graph.OpReLU)
	}
	for _, n := range randomStack(rand.New(rand.NewSource(7))).Nodes {
		b.G.AddNode(n)
	}
	g, err := Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, gn := range g.Nodes {
		if gn.menu.first != gn {
			shared++
		}
	}
	if shared < 4 {
		t.Fatalf("%d nodes share another node's menu cell, want at least 4", shared)
	}
	widths := []int{1, 2, 8}
	type menuKey struct {
		gn *GraphNode
		w  int
	}
	type snapshot struct {
		menu     []*Pattern // the memoized slice, elements as first seen
		rendered []string
	}
	before := make(map[menuKey]snapshot)
	for _, gn := range g.Nodes {
		for _, w := range widths {
			ps := PatternsFor(gn, w)
			snap := snapshot{menu: append([]*Pattern(nil), ps...), rendered: make([]string, len(ps))}
			for i, p := range ps {
				snap.rendered[i] = renderPattern(p)
			}
			before[menuKey{gn, w}] = snap
		}
	}
	sameSlice := func(a, b []*Pattern) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	first := make(map[menuKey][]*Pattern)
	for k := range before {
		first[k] = PatternsFor(k.gn, k.w)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for iter := 0; iter < 100; iter++ {
				w := widths[(worker+iter)%len(widths)]
				for _, gn := range g.Nodes {
					ps := PatternsFor(gn, w)
					if !sameSlice(ps, first[menuKey{gn, w}]) || !sameSlice(ps, first[menuKey{gn.menu.first, w}]) {
						errs <- fmt.Sprintf("node %d w=%d: PatternsFor returned a slice other than its cell's memoized menu", gn.ID, w)
						return
					}
					// Assembly-style use: scan by name, read priced fields.
					var total float64
					for _, p := range ps {
						if p.Name == "replicate" {
							total += float64(4*p.WeightBytesPerDev + p.OutBytesPerDev)
						}
						total += float64(p.FLOPsPerDev + int64(len(p.FwdComm)+len(p.BwdComm)))
					}
					_ = total
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for k, want := range before {
		ps := PatternsFor(k.gn, k.w)
		if len(ps) != len(want.menu) {
			t.Fatalf("node %d w=%d: menu length changed %d -> %d", k.gn.ID, k.w, len(want.menu), len(ps))
		}
		for i, p := range ps {
			if p != want.menu[i] {
				t.Errorf("node %d w=%d: menu entry %d replaced or reordered", k.gn.ID, k.w, i)
			}
			if got := renderPattern(p); got != want.rendered[i] {
				t.Errorf("node %d w=%d pattern %d mutated:\n got  %s\n want %s", k.gn.ID, k.w, i, got, want.rendered[i])
			}
		}
	}
}
