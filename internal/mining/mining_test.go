package mining

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
)

// chainGraph builds n identical dense layers (each one GraphNode).
func chainGraph(t testing.TB, n int) *ir.GNGraph {
	t.Helper()
	b := graph.NewBuilder("chain")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	for i := 0; i < n; i++ {
		b.SetLayer(fmt.Sprintf("dense.%d", i))
		x = b.Dense("dense", x, 64, graph.OpReLU)
	}
	g, err := ir.Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMineChainFindsRepeats(t *testing.T) {
	g := chainGraph(t, 8)
	opt := DefaultOptions()
	opt.MinSize = 1
	res := Mine(context.Background(), g, opt)
	if len(res.Frequent) == 0 {
		t.Fatal("no frequent subgraphs in an 8× repeated chain")
	}
	// The single-node dense pattern must appear 8 times.
	found := false
	for _, s := range res.Frequent {
		if s.Size == 1 && s.Support() == 8 {
			found = true
		}
	}
	if !found {
		t.Error("size-1 pattern with support 8 missing")
	}
}

func TestMineRespectsMinSupport(t *testing.T) {
	g := chainGraph(t, 3)
	opt := DefaultOptions()
	opt.MinSize = 1
	opt.MinSupport = 4 // more than the 3 occurrences
	res := Mine(context.Background(), g, opt)
	for _, s := range res.Frequent {
		if s.Support() < 4 {
			t.Errorf("pattern with support %d < minSupport emitted", s.Support())
		}
	}
}

func TestMineRespectsMinSize(t *testing.T) {
	g := chainGraph(t, 8)
	opt := DefaultOptions()
	opt.MinSize = 3
	res := Mine(context.Background(), g, opt)
	for _, s := range res.Frequent {
		if s.Size < 3 {
			t.Errorf("pattern of size %d < minSize emitted", s.Size)
		}
	}
}

func TestMineT5FoldsToFewClasses(t *testing.T) {
	// The headline result: a deep transformer folds to a handful of
	// unique subgraphs (the paper reports 6561 nodes → 5 for T5-Large).
	src := models.T5(models.T5Sized("200M")) // 6+6 layers
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Mine(context.Background(), g, DefaultOptions())
	classes := Fold(g, res)

	if errs := CoverageCheck(g, classes); len(errs) != 0 {
		t.Fatalf("fold coverage broken: %v", errs[:min(3, len(errs))])
	}
	v, _ := g.Stats()
	if len(classes) >= v/4 {
		t.Errorf("folding too weak: %d classes for %d GraphNodes", len(classes), v)
	}
	// Encoder layers must share one class with ≥ 5 instances.
	best := 0
	for _, c := range classes {
		if len(c.Instances) > best {
			best = len(c.Instances)
		}
	}
	if best < 5 {
		t.Errorf("largest class has %d instances, want ≥ 5 (repeated enc layers)", best)
	}
}

func TestFoldDisjointAndComplete(t *testing.T) {
	for _, name := range []string{"t5-100M", "moe-380M", "resnet-26M", "gpt-125M"} {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ir.Group(src)
		if err != nil {
			t.Fatal(err)
		}
		classes := Fold(g, Mine(context.Background(), g, DefaultOptions()))
		if errs := CoverageCheck(g, classes); len(errs) != 0 {
			t.Errorf("%s: coverage errors: %v", name, errs[:min(3, len(errs))])
		}
		// Instances within a class have equal sizes.
		for _, c := range classes {
			for _, in := range c.Instances {
				if len(in) != c.Size() {
					t.Errorf("%s: instance size %d != class size %d", name, len(in), c.Size())
				}
			}
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	g := chainGraph(t, 6)
	opt := DefaultOptions()
	opt.MinSize = 1
	a, b := Mine(context.Background(), g, opt), Mine(context.Background(), g, opt)
	if len(a.Frequent) != len(b.Frequent) {
		t.Fatalf("non-deterministic result sizes: %d vs %d", len(a.Frequent), len(b.Frequent))
	}
	for i := range a.Frequent {
		if a.Frequent[i].Signature != b.Frequent[i].Signature {
			t.Errorf("pattern %d differs across runs", i)
		}
	}
}

func TestMineGrowthStopsAtRepeatBoundary(t *testing.T) {
	// With minSupport equal to the repeat count, patterns cannot grow
	// beyond one repeat unit: a subgraph spanning two units occurs only
	// repeatCount-1 times.
	g := chainGraph(t, 5)
	opt := DefaultOptions()
	opt.MinSize = 1
	opt.MinSupport = 5
	res := Mine(context.Background(), g, opt)
	for _, s := range res.Frequent {
		if s.Size > 1 {
			t.Errorf("pattern of size %d should not be frequent at support 5", s.Size)
		}
	}
}

func TestMineElapsedRecorded(t *testing.T) {
	g := chainGraph(t, 4)
	res := Mine(context.Background(), g, DefaultOptions())
	if res.Elapsed <= 0 {
		t.Error("Elapsed must be positive")
	}
}

func TestCanonicalSigDistinguishesStructure(t *testing.T) {
	// Two dense layers with different widths must not share a signature.
	b := graph.NewBuilder("mixed")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	b.SetLayer("a")
	y := b.Dense("a", x, 64, graph.OpReLU)
	b.SetLayer("b")
	b.Dense("b", y, 128, graph.OpReLU)
	g, err := ir.Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	hs := newMiner(g, DefaultOptions()).newHasher()
	s0 := hs.canonicalHash(Instance{g.Nodes[0]})
	s1 := hs.canonicalHash(Instance{g.Nodes[1]})
	if s0 == s1 {
		t.Error("different dense widths should have different signatures")
	}
}

// refCanonicalHash and refKey are the map-based kernel this package used
// before labels, positions and adjacency became ID-indexed slices (a
// per-call position map, hash/fnv fed eight bytes at a time, sort.Slice),
// kept verbatim as the oracle: hash order drives the group merge order,
// the MaxPatternsPerLevel tie-break and emit order, so the kernel may
// change its layout but never a hash value.
func refCanonicalHash(m *miner, in Instance) uint64 {
	idx := make(map[*ir.GraphNode]int, len(in))
	for i, gn := range in {
		idx[gn] = i
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, gn := range in {
		putUint64(&buf, uint64(m.labels[gn.ID]))
		h.Write(buf[:])
	}
	var edges []uint64
	for i, gn := range in {
		for _, s := range m.g.Succs(gn) {
			if j, ok := idx[s]; ok {
				edges = append(edges, uint64(i)<<32|uint64(j))
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a] < edges[b] })
	for _, e := range edges {
		putUint64(&buf, e)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func refKey(in Instance) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, gn := range in {
		putUint64(&buf, uint64(gn.ID))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

// randomConnected grows a connected node set of up to size members from a
// random start by repeatedly adding a random neighbour of a random member.
func randomConnected(rng *rand.Rand, g *ir.GNGraph, size int) Instance {
	in := Instance{g.Nodes[rng.Intn(len(g.Nodes))]}
	for tries := 0; len(in) < size && tries < 8*size; tries++ {
		x := in[rng.Intn(len(in))]
		nbs := g.Succs(x)
		if rng.Intn(2) == 0 {
			nbs = g.Preds(x)
		}
		if len(nbs) == 0 {
			continue
		}
		if nb := nbs[rng.Intn(len(nbs))]; !in.contains(nb) {
			in = append(in, nb)
		}
	}
	slices.SortFunc(in, func(a, b *ir.GraphNode) int { return a.ID - b.ID })
	return in
}

// TestKernelMatchesReferenceHashes holds the index-addressed kernel to the
// reference on every instance of every pattern mining emits and on 1,000
// seeded random connected node sets per model, all through ONE hasher: its
// pos scratch must be all-zero after every call, because a stale entry
// does not fail the call that left it — it silently adds phantom edges to
// the next hash.
func TestKernelMatchesReferenceHashes(t *testing.T) {
	for _, name := range []string{"t5-770M", "moe-380M", "resnet-26M", "bert-base"} {
		t.Run(name, func(t *testing.T) {
			g := groupNamed(t, name)
			opt := DefaultOptions()
			opt.MinSize = 1
			m := newMiner(g, opt)
			hs := m.newHasher()
			check := func(what string, in Instance) uint64 {
				t.Helper()
				got, want := hs.canonicalHash(in), refCanonicalHash(m, in)
				if got != want {
					t.Fatalf("%s: canonicalHash = %#x, reference %#x (%v)", what, got, want, in)
				}
				if i := slices.IndexFunc(hs.pos, func(p int32) bool { return p != 0 }); i >= 0 {
					t.Fatalf("%s: pos[%d] = %d left behind by canonicalHash(%v)", what, i, hs.pos[i], in)
				}
				if got, want := in.key(), refKey(in); got != want {
					t.Fatalf("%s: key = %#x, reference %#x (%v)", what, got, want, in)
				}
				// Level 1 skips the hasher: one label fold per node.
				if len(in) == 1 && fnvWord(fnvOffset, uint64(m.labels[in[0].ID])) != got {
					t.Fatalf("%s: level-1 label fold differs from canonicalHash %#x (%v)", what, got, in)
				}
				return got
			}

			res := Mine(context.Background(), g, opt)
			if len(res.Frequent) == 0 {
				t.Fatal("nothing mined")
			}
			sizes := make(map[int]bool)
			for pi, sub := range res.Frequent {
				sizes[sub.Size] = true
				h0 := check(fmt.Sprintf("pattern %d instance 0", pi), sub.Instances[0])
				for ii, in := range sub.Instances[1:] {
					if h := check(fmt.Sprintf("pattern %d instance %d", pi, ii+1), in); h != h0 {
						t.Fatalf("pattern %d: instance %d hashes %#x, instance 0 %#x", pi, ii+1, h, h0)
					}
				}
			}
			if !sizes[1] || len(sizes) < 4 {
				t.Fatalf("emitted sizes %v: want level 1 and deeper levels covered", sizes)
			}

			rng := rand.New(rand.NewSource(15))
			for i := 0; i < 1000; i++ {
				check(fmt.Sprintf("random set %d", i), randomConnected(rng, g, 1+rng.Intn(32)))
			}
		})
	}
}

// TestMineAllocationBudget holds the kernel's allocation count inside
// tier-1: the map-based kernel made 315,742 allocations per t5-770M sweep
// (a position map per hash, a map of maps per dedup, a claim map per
// pattern), the index-addressed one about 35,000.
func TestMineAllocationBudget(t *testing.T) {
	g := groupNamed(t, "t5-770M")
	opt := DefaultOptions()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() { Mine(context.Background(), g, opt) })
	if allocs > 80000 {
		t.Errorf("Mine(t5-770M, Workers 1) made %.0f allocations, budget 80,000", allocs)
	}
	t.Logf("Mine(t5-770M, Workers 1): %.0f allocations", allocs)
}
