package mining

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
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
	s0 := hs.canonicalHash([]int32{0})
	s1 := hs.canonicalHash([]int32{1})
	if s0 == s1 {
		t.Error("different dense widths should have different signatures")
	}
}

// refCanonicalHash and refKey are the map-based kernel this package used
// before labels, positions and adjacency became ID-indexed slices (a
// per-call position map, hash/fnv fed eight bytes at a time, sort.Slice),
// kept verbatim as the oracle: hash order drives the group merge order,
// the MaxPatternsPerLevel tie-break and emit order, so the kernel may
// change its layout but never a hash value. refKey is the instance key
// refMine dedups on.
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
		if nb := nbs[rng.Intn(len(nbs))]; !slices.Contains(in, nb) {
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
				got, want := hs.canonicalHash(idsOf(in)), refCanonicalHash(m, in)
				if got != want {
					t.Fatalf("%s: canonicalHash = %#x, reference %#x (%v)", what, got, want, in)
				}
				if i := slices.IndexFunc(hs.pos, func(p int32) bool { return p != 0 }); i >= 0 {
					t.Fatalf("%s: pos[%d] = %d left behind by canonicalHash(%v)", what, i, hs.pos[i], in)
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

			// With MinSize 1 every level instance is emitted. Each carries
			// the XOR of its members' words, folded in any order.
			rng := rand.New(rand.NewSource(15))
			levels, instances := 0, 0
			for lv := m.seed(); len(lv.runs) > 0 && lv.k <= opt.MaxSize; {
				levels++
				instances += len(lv.keys)
				for i, key := range lv.keys {
					ids := slices.Clone(lv.members(int32(i)))
					rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
					want := uint64(0)
					for _, v := range ids {
						want ^= word(v)
					}
					if key != want {
						t.Fatalf("level %d instance %d: carried key %#x, XOR of words %#x (%v)", lv.k, i, key, want, ids)
					}
				}
				next, err := m.grow(context.Background(), lv)
				if err != nil {
					t.Fatal(err)
				}
				lv = next
			}
			emitted := 0
			for _, sub := range res.Frequent {
				emitted += len(sub.Instances)
			}
			if levels != res.Levels || instances != emitted {
				t.Fatalf("walked %d levels, %d instances; Mine emitted %d levels, %d instances",
					levels, instances, res.Levels, emitted)
			}

			rng = rand.New(rand.NewSource(15))
			for i := 0; i < 1000; i++ {
				check(fmt.Sprintf("random set %d", i), randomConnected(rng, g, 1+rng.Intn(32)))
			}
		})
	}
}

// refMine is the level loop this package ran before additions became
// (parent, node) references, kept verbatim as the oracle: every addition
// is cloned, deduplicated in its group and again in the merge by an FNV
// key over its member IDs, and a replay is accepted when its canonical
// hash equals the representative's. The kernel pieces it ran on whose
// signatures have since changed (emit, adj, extendInto, claim, contains,
// sortedHashes) are kept beside it as verbatim ref copies; it hashes with
// the kernel's hasher, which TestKernelMatchesReferenceHashes holds to
// refCanonicalHash.
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
	refEmit(m, res, level, 1)
	res.Levels = 1

	for k := 2; k <= opt.MaxSize && len(level) > 0 && ctx.Err() == nil; k++ {
		groups := refSortedHashes(level)
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
		refEmit(m, res, next, k)
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
	var ids []int32
	hash := func(in Instance) uint64 {
		ids = ids[:0]
		for _, gn := range in {
			ids = append(ids, int32(gn.ID))
		}
		return hs.canonicalHash(ids)
	}
	var adds []refAddition
	seen := make(map[[2]uint64]struct{}) // (pattern hash, instance key)
	scratch := make(Instance, 0, len(rep)+1)
	add := func(h uint64) {
		id := [2]uint64{h, refKey(scratch)}
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		adds = append(adds, refAddition{h, id[1], slices.Clone(scratch)})
	}
	for i, gn := range rep {
		for dir := 0; dir < 2; dir++ {
			for j, nb := range refAdj(m, dir, gn) {
				if refContains(rep, nb) {
					continue
				}
				scratch = refExtendInto(scratch, rep, nb)
				h := hash(scratch)
				add(h)
				for _, inst := range instances[1:] {
					nbs := refAdj(m, dir, inst[i])
					if j >= len(nbs) || refContains(inst, nbs[j]) {
						continue
					}
					scratch = refExtendInto(scratch, inst, nbs[j])
					if hash(scratch) == h {
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
		if refClaim(claimed, in[1:], in[0]) {
			out = append(out, in)
		}
	}
	return out
}

func refEmit(m *miner, res *Result, level map[uint64][]Instance, size int) {
	if size < m.opt.MinSize {
		return
	}
	for _, h := range refSortedHashes(level) {
		ins := level[h]
		res.Frequent = append(res.Frequent, &Subgraph{
			Signature: m.readableSig(ins[0]),
			Size:      size,
			Instances: ins,
		})
	}
}

func refSortedHashes(level map[uint64][]Instance) []uint64 {
	hs := make([]uint64, 0, len(level))
	for h := range level {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

func refAdj(m *miner, dir int, gn *ir.GraphNode) []*ir.GraphNode {
	if dir == 0 {
		return m.g.Succs(gn)
	}
	return m.g.Preds(gn)
}

func refContains(in Instance, gn *ir.GraphNode) bool {
	for _, m := range in {
		if m == gn {
			return true
		}
	}
	return false
}

func refExtendInto(dst, in Instance, nb *ir.GraphNode) Instance {
	dst = append(dst[:0], in...)
	dst = append(dst, nb)
	p := len(dst) - 1
	for p > 0 && dst[p-1].ID > nb.ID {
		dst[p] = dst[p-1]
		p--
	}
	dst[p] = nb
	return dst
}

func refClaim(claimed []bool, in Instance, nb *ir.GraphNode) bool {
	if claimed[nb.ID] {
		return false
	}
	for _, gn := range in {
		if claimed[gn.ID] {
			return false
		}
	}
	for _, gn := range in {
		claimed[gn.ID] = true
	}
	claimed[nb.ID] = true
	return true
}

// refFold is Fold as it was while leftover singletons were grouped by
// rendering every unclaimed node's Signature, kept verbatim as the oracle
// for the label-grouped Fold: the same classes in the same order, under
// the same Signatures.
func refFold(g *ir.GNGraph, res *Result) []*Class {
	claimed := make([]bool, len(g.Nodes))
	var classes []*Class

	// Consume patterns by total coverage (size × support): a pattern that
	// tiles the whole repeated stack (e.g. exactly one transformer layer,
	// L times) beats a slightly larger pattern that straddles block
	// boundaries and therefore embeds fewer times.
	ordered := append([]*Subgraph{}, res.Frequent...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ci := ordered[i].Size * len(ordered[i].Instances)
		cj := ordered[j].Size * len(ordered[j].Instances)
		if ci != cj {
			return ci > cj
		}
		return ordered[i].Size > ordered[j].Size
	})

	for _, sub := range ordered {
		var taken []Instance
		for _, in := range sub.Instances {
			if refClaim(claimed, in[1:], in[0]) {
				taken = append(taken, in)
			}
		}
		// A pattern with a single claimable instance offers no reuse:
		// release it so its nodes fall to better-aligned patterns or to
		// per-signature singletons.
		if len(taken) < 2 {
			for _, in := range taken {
				for _, gn := range in {
					claimed[gn.ID] = false
				}
			}
			continue
		}
		classes = append(classes, &Class{Signature: sub.Signature, Instances: taken})
	}

	// Leftovers: group singletons by node signature so e.g. the encoder
	// and decoder embedding lookups still share one search.
	bySig := make(map[string]*Class)
	var order []string
	for _, gn := range g.Nodes {
		if claimed[gn.ID] {
			continue
		}
		sig := gn.Signature()
		c, ok := bySig[sig]
		if !ok {
			c = &Class{Signature: sig}
			bySig[sig] = c
			order = append(order, sig)
		}
		c.Instances = append(c.Instances, Instance{gn})
	}
	for _, sig := range order {
		classes = append(classes, bySig[sig])
	}
	return classes
}

// idsOf returns an instance's member IDs, the form the hasher takes.
func idsOf(in Instance) []int32 {
	ids := make([]int32, len(in))
	for i, gn := range in {
		ids[i] = int32(gn.ID)
	}
	return ids
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
				wantClasses := refFold(g, want)
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
// addition), with additions built only once they survive the level
// filter about 8,000, and with each level an int32 arena, pointer-free
// additions and bucketed merges 2,314.
func TestMineAllocationBudget(t *testing.T) {
	g := groupNamed(t, "t5-770M")
	opt := DefaultOptions()
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() { Mine(context.Background(), g, opt) })
	if allocs > 5000 {
		t.Errorf("Mine(t5-770M, Workers 1) made %.0f allocations, budget 5,000", allocs)
	}
	t.Logf("Mine(t5-770M, Workers 1): %.0f allocations", allocs)
}

// TestMineFreshGraphAllocationBudget holds the allocations and the bytes
// of mining a graph nothing has mined before, as every cold search does.
// A reused graph hides the cost of labelling: GraphNode.Signature
// memoizes its string, so only the first Mine pays for it. Interning
// labels by rendering a Signature per node made 32,557 allocations on a
// fresh t5-1.4B; interning them structurally, with Signature rendered
// only for emitted patterns, 3,892, and 7.9 MB. Keeping each level's
// addition lists, merge tables and arena on the miner, reused from level
// to level, cut the bytes to about 2.6 MB in about 3,300 allocations.
// A race-detector build of the same code measures about 3.0 MB in 3,600
// allocations; the budgets hold under both builds.
func TestMineFreshGraphAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opt := DefaultOptions()
	opt.Workers = 1
	const runs = 3
	var allocs, bytes uint64
	for i := 0; i < runs; i++ {
		g := groupNamed(t, "t5-1.4B")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Mine(context.Background(), g, opt)
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	allocs, bytes = allocs/runs, bytes/runs
	t.Logf("Mine(fresh t5-1.4B, Workers 1): %d allocations, %d bytes", allocs, bytes)
	if allocs > 3800 {
		t.Errorf("Mine(fresh t5-1.4B, Workers 1) made %d allocations, budget 3,800", allocs)
	}
	if bytes > 3_200_000 {
		t.Errorf("Mine(fresh t5-1.4B, Workers 1) allocated %d bytes, budget 3.2 MB", bytes)
	}
}

// refInternLabels is internLabels as it was while labels were interned by
// rendering every node's Signature string, kept verbatim as the oracle:
// the structural labels must be the same numbers in the same order.
func refInternLabels(g *ir.GNGraph) []uint32 {
	bySig := make(map[string]uint32)
	out := make([]uint32, len(g.Nodes))
	for _, gn := range g.Nodes {
		sig := gn.Signature()
		id, ok := bySig[sig]
		if !ok {
			id = uint32(len(bySig))
			bySig[sig] = id
		}
		out[gn.ID] = id
	}
	return out
}

// TestInternLabelsMatchSignatures holds the structural labels to the
// Signature-string ones on every registered model, and on hand-built node
// pairs that differ in one detail Signature renders (or, for a nil against
// an empty weight shape, renders alike).
func TestInternLabelsMatchSignatures(t *testing.T) {
	for _, name := range models.Names() {
		g := groupNamed(t, name)
		got, n := internLabels(g)
		want := refInternLabels(g)
		for v := range got {
			if got[v] != want[v] {
				t.Errorf("%s: node %d has label %d, Signature interning %d", name, v, got[v], want[v])
				break
			}
		}
		if n != int(slices.Max(want))+1 {
			t.Errorf("%s: %d labels, Signature interning has %d", name, n, slices.Max(want)+1)
		}
	}

	ops := func(kinds ...graph.OpKind) []*graph.Node {
		out := make([]*graph.Node, len(kinds))
		for i, k := range kinds {
			out[i] = &graph.Node{Kind: k}
		}
		return out
	}
	tensors := func(shapes ...graph.Shape) []*graph.Tensor {
		out := make([]*graph.Tensor, len(shapes))
		for i, s := range shapes {
			out[i] = &graph.Tensor{Shape: s}
		}
		return out
	}
	dense := func() *ir.GraphNode {
		return &ir.GraphNode{
			Kind:       ir.KDense,
			Ops:        ops(graph.OpMatMul, graph.OpBiasAdd, graph.OpReLU),
			Weights:    tensors(graph.NewShape(64, 128), graph.NewShape(128)),
			InTensors:  tensors(graph.NewShape(32, 64)),
			OutTensors: tensors(graph.NewShape(32, 128)),
		}
	}
	cases := []struct {
		name string
		edit func(a, b *ir.GraphNode)
		same bool
	}{
		{"identical", func(a, b *ir.GraphNode) {}, true},
		{"nil vs empty InShape", func(a, b *ir.GraphNode) {
			a.InTensors = nil
			b.InTensors = tensors(graph.Shape{})
		}, false},
		{"one op kind", func(a, b *ir.GraphNode) { b.Ops = ops(graph.OpMatMul, graph.OpBiasAdd, graph.OpGeLU) }, false},
		{"weight order", func(a, b *ir.GraphNode) { b.Weights = tensors(graph.NewShape(128), graph.NewShape(64, 128)) }, false},
		{"nil vs empty weight shape", func(a, b *ir.GraphNode) {
			a.Weights = tensors(nil)
			b.Weights = tensors(graph.Shape{})
		}, true},
	}
	for _, c := range cases {
		a, b := dense(), dense()
		b.ID = 1
		c.edit(a, b)
		g := &ir.GNGraph{Nodes: []*ir.GraphNode{a, b}}
		got, _ := internLabels(g)
		if want := refInternLabels(g); !slices.Equal(got, want) {
			t.Errorf("%s: labels %v, Signature interning %v", c.name, got, want)
		}
		if (got[0] == got[1]) != c.same {
			t.Errorf("%s: labels %v, want shared %v (%q, %q)", c.name, got, c.same, a.Signature(), b.Signature())
		}
	}
}

// TestMergeKeepsKeyCollisions drives merge with additions that share a
// (hash, key) pair: only those with the same member set are duplicates,
// whether the survivor they repeat was the first with that pair or not.
func TestMergeKeepsKeyCollisions(t *testing.T) {
	// Level 2: instances {0,1}, {2,3}, {1,2}.
	lv := &level{k: 2, ids: []int32{0, 1, 2, 3, 1, 2}, keys: make([]uint64, 3)}
	a := addition{h: 7, key: 42, parent: 0, nb: 4} // {0,1,4}
	b := addition{h: 7, key: 42, parent: 1, nb: 5} // {2,3,5}: a collision with a
	c := addition{h: 9, key: 42, parent: 0, nb: 4} // another pattern
	d := addition{h: 7, key: 42, parent: 2, nb: 0} // {0,1,2}: a second collision
	lists := [][]addition{
		{a, b, c},
		{
			{h: 7, key: 42, parent: 0, nb: 4}, // a again
			d,
			{h: 7, key: 42, parent: 1, nb: 5}, // b again, past the first survivor
			{h: 7, key: 42, parent: 0, nb: 2}, // {0,1,2} again, grown from another parent
		},
	}
	// One mergeBufs for both merges: the second reuses the first's
	// buffers and maps.
	var bufs mergeBufs
	adds, runs := bufs.merge(lv, lists, 256)
	if want := []addition{a, b, d, c}; !slices.Equal(adds, want) {
		t.Errorf("merged additions %v, want %v", adds, want)
	}
	if want := []run{{7, 0, 3}, {9, 3, 4}}; !slices.Equal(runs, want) {
		t.Errorf("runs %v, want %v", runs, want)
	}
	// The instance cap counts survivors only.
	if adds, runs := bufs.merge(lv, lists, 2); !slices.Equal(adds, []addition{a, b, c}) || !slices.Equal(runs, []run{{7, 0, 2}, {9, 2, 3}}) {
		t.Errorf("capped at 2: additions %v, runs %v", adds, runs)
	}
}
