package mining

import (
	"cmp"
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
	"tapas/internal/parallel"
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

// refMine is the level loop this package ran before additions became
// (parent, node) references, kept verbatim as the oracle: every addition
// is cloned, deduplicated in its group and again in the merge, and a
// replay is accepted when its canonicalHash equals the representative's.
func refMine(ctx context.Context, g *ir.GNGraph, opt Options) *Result {
	m := newMiner(g, opt)
	opt = m.opt
	res := &Result{MinSupportUsed: opt.MinSupport}
	workers := parallel.Workers(opt.Workers)

	level := make(map[uint64][]Instance)
	for _, gn := range g.Nodes {
		h := fnvWord(fnvOffset, uint64(m.labels[gn.ID]))
		level[h] = append(level[h], Instance{gn})
	}
	level = refFilterFrequent(m, level)
	m.emit(res, level, 1)
	res.Levels = 1

	for k := 2; k <= opt.MaxSize && len(level) > 0 && ctx.Err() == nil; k++ {
		groups := sortedHashes(level)
		lists, err := parallel.Map(ctx, workers, groups, func(_ context.Context, _ int, h uint64) ([]refAddition, error) {
			return refExpandGroup(m, level[h]), nil
		})
		if err != nil {
			break
		}
		next := make(map[uint64][]Instance)
		seen := make(map[[2]uint64]struct{}) // (pattern hash, instance key)
		for _, adds := range lists {
			for _, a := range adds {
				id := [2]uint64{a.h, a.key}
				if _, dup := seen[id]; dup || len(next[a.h]) >= opt.MaxInstancesPerPattern {
					continue
				}
				seen[id] = struct{}{}
				next[a.h] = append(next[a.h], a.in)
			}
		}
		next = refFilterFrequent(m, next)
		if len(next) == 0 {
			break
		}
		res.Levels = k
		m.emit(res, next, k)
		level = next
	}

	sort.Slice(res.Frequent, func(i, j int) bool {
		a, b := res.Frequent[i], res.Frequent[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		if len(a.Instances) != len(b.Instances) {
			return len(a.Instances) > len(b.Instances)
		}
		return a.Signature < b.Signature
	})
	return res
}

type refAddition struct {
	h, key uint64
	in     Instance
}

func refExpandGroup(m *miner, instances []Instance) []refAddition {
	rep := instances[0]
	hs := m.newHasher()
	var adds []refAddition
	seen := make(map[[2]uint64]struct{}) // (pattern hash, instance key)
	scratch := make(Instance, 0, len(rep)+1)
	add := func(h uint64) {
		id := [2]uint64{h, scratch.key()}
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		adds = append(adds, refAddition{h, id[1], slices.Clone(scratch)})
	}
	for i, gn := range rep {
		for dir := 0; dir < 2; dir++ {
			for j, nb := range m.adj(dir, gn) {
				if rep.contains(nb) {
					continue
				}
				scratch = extendInto(scratch, rep, nb)
				h := hs.canonicalHash(scratch)
				add(h)
				for _, inst := range instances[1:] {
					nbs := m.adj(dir, inst[i])
					if j >= len(nbs) || inst.contains(nbs[j]) {
						continue
					}
					scratch = extendInto(scratch, inst, nbs[j])
					if hs.canonicalHash(scratch) == h {
						add(h)
					}
				}
			}
		}
	}
	return adds
}

func refFilterFrequent(m *miner, level map[uint64][]Instance) map[uint64][]Instance {
	out := make(map[uint64][]Instance, len(level))
	claimed := make([]bool, len(m.g.Nodes))
	for sig, ins := range level {
		ins = refDisjointInstances(ins, claimed)
		if len(ins) >= m.opt.MinSupport {
			out[sig] = ins
		}
	}
	if len(out) > m.opt.MaxPatternsPerLevel {
		type kv struct {
			sig uint64
			n   int
		}
		all := make([]kv, 0, len(out))
		for sig, ins := range out {
			all = append(all, kv{sig, len(ins)})
		}
		slices.SortFunc(all, func(a, b kv) int {
			if a.n != b.n {
				return b.n - a.n
			}
			return cmp.Compare(a.sig, b.sig)
		})
		trimmed := make(map[uint64][]Instance, m.opt.MaxPatternsPerLevel)
		for _, e := range all[:m.opt.MaxPatternsPerLevel] {
			trimmed[e.sig] = out[e.sig]
		}
		out = trimmed
	}
	return out
}

func refDisjointInstances(ins []Instance, claimed []bool) []Instance {
	span := func(in Instance) int { return in[len(in)-1].ID - in[0].ID }
	slices.SortStableFunc(ins, func(a, b Instance) int {
		if sa, sb := span(a), span(b); sa != sb {
			return sa - sb
		}
		return a[0].ID - b[0].ID
	})
	clear(claimed)
	out := ins[:0]
	for _, in := range ins {
		if span(in) >= 4*len(in) {
			continue
		}
		if claim(claimed, in[1:], in[0]) {
			out = append(out, in)
		}
	}
	return out
}

// memberIDs renders instances as their member IDs, in order.
func memberIDs(ins []Instance) [][]int {
	out := make([][]int, len(ins))
	for i, in := range ins {
		for _, gn := range in {
			out[i] = append(out[i], gn.ID)
		}
	}
	return out
}

// TestMineMatchesReference holds Mine to refMine on every registered
// model: same levels and threshold, the same frequent patterns in the same
// order with the same members in the same order, and so the same fold.
// The third configuration's instance cap binds on t5-100M and t5-200M,
// which is the only place the merge's dedup shows: a duplicate that
// stays under the cap is dropped again by the disjoint pass.
func TestMineMatchesReference(t *testing.T) {
	def := DefaultOptions()
	configs := []struct{ minSize, maxInstances int }{
		{1, def.MaxInstancesPerPattern},
		{def.MinSize, def.MaxInstancesPerPattern},
		{1, 8},
	}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			g := groupNamed(t, name)
			for _, c := range configs {
				opt := DefaultOptions()
				opt.MinSize, opt.MaxInstancesPerPattern = c.minSize, c.maxInstances
				opt.Workers = 1
				want := refMine(context.Background(), g, opt)
				wantClasses := Fold(g, want)
				for _, workers := range []int{1, 4} {
					opt.Workers = workers
					got := Mine(context.Background(), g, opt)
					at := fmt.Sprintf("MinSize %d, MaxInstancesPerPattern %d, Workers %d", c.minSize, c.maxInstances, workers)
					if got.Levels != want.Levels || got.MinSupportUsed != want.MinSupportUsed {
						t.Fatalf("%s: levels %d, min support %d; reference %d, %d",
							at, got.Levels, got.MinSupportUsed, want.Levels, want.MinSupportUsed)
					}
					if len(got.Frequent) != len(want.Frequent) {
						t.Fatalf("%s: %d frequent patterns, reference %d", at, len(got.Frequent), len(want.Frequent))
					}
					for i, sub := range got.Frequent {
						ref := want.Frequent[i]
						if sub.Signature != ref.Signature || sub.Size != ref.Size ||
							!slices.EqualFunc(memberIDs(sub.Instances), memberIDs(ref.Instances), slices.Equal) {
							t.Fatalf("%s: pattern %d has size %d, members %v; reference size %d, members %v",
								at, i, sub.Size, memberIDs(sub.Instances), ref.Size, memberIDs(ref.Instances))
						}
					}
					classes := Fold(g, got)
					if len(classes) != len(wantClasses) {
						t.Fatalf("%s: %d classes, reference %d", at, len(classes), len(wantClasses))
					}
					for i, cl := range classes {
						ref := wantClasses[i]
						if cl.Signature != ref.Signature ||
							!slices.EqualFunc(memberIDs(cl.Instances), memberIDs(ref.Instances), slices.Equal) {
							t.Fatalf("%s: class %d has members %v, reference %v",
								at, i, memberIDs(cl.Instances), memberIDs(ref.Instances))
						}
					}
				}
			}
		})
	}
}

// TestMineAllocationBudget holds the kernel's allocation count inside
// tier-1: the map-based kernel made 315,742 allocations per t5-770M sweep
// (a position map per hash, a map of maps per dedup, a claim map per
// pattern), the index-addressed one 35,646 (a clone per candidate
// addition), and with additions built only once they survive the level
// filter, into one array per pattern, about 8,000.
func TestMineAllocationBudget(t *testing.T) {
	g := groupNamed(t, "t5-770M")
	opt := DefaultOptions()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() { Mine(context.Background(), g, opt) })
	if allocs > 20000 {
		t.Errorf("Mine(t5-770M, Workers 1) made %.0f allocations, budget 20,000", allocs)
	}
	t.Logf("Mine(t5-770M, Workers 1): %.0f allocations", allocs)
}
