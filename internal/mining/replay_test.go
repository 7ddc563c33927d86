package mining

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/models"
)

// mineLevels runs Mine's level loop on m — seed, then grow until no
// pattern stays frequent — and calls visit on every level, the arena
// handoff included, so a test sees each level exactly as grow expands it.
func mineLevels(t *testing.T, m *miner, visit func(*level)) {
	t.Helper()
	lv := m.seed()
	visit(lv)
	for lv.k < m.opt.MaxSize && len(lv.runs) > 0 {
		next, err := m.grow(context.Background(), lv)
		if err != nil {
			t.Fatal(err)
		}
		if len(next.runs) == 0 {
			return
		}
		visit(next)
		m.spare, lv = lv, next
	}
}

// TestReplayCheckMatchesFullForm holds the replay check to the full form
// comparison on every registered model. On every level it asserts the
// invariant sameReplay rests on — every instance of a run has its first
// instance's form, and that form hashes to the run's hash — and then
// walks expandGroup's extensions and replays, requiring every sameReplay
// decision to equal sameForm's.
func TestReplayCheckMatchesFullForm(t *testing.T) {
	var fast, fallback, kept int
	for _, name := range models.Names() {
		g := groupNamed(t, name)
		opt := DefaultOptions()
		opt.Workers = 1
		m := newMiner(g, opt)
		hs := m.newHasher()
		var ext, replay []int32
		mineLevels(t, m, func(lv *level) {
			for _, r := range lv.runs {
				rep := lv.members(r.lo)
				if h := hs.canonicalHash(rep); h != r.h {
					t.Fatalf("%s level %d: run hash %#x, its first instance %v hashes to %#x", name, lv.k, r.h, rep, h)
				}
				for inst := r.lo + 1; inst < r.hi; inst++ {
					if !hs.sameForm(rep, lv.members(inst)) {
						t.Fatalf("%s level %d: instance %v lacks the form of the run's first, %v", name, lv.k, lv.members(inst), rep)
					}
				}
			}
			if lv.k >= m.opt.MaxSize {
				return
			}
			for _, r := range lv.runs {
				rep := lv.members(r.lo)
				for i, v := range rep {
					for dir := range m.adj {
						a := &m.adj[dir]
						for j, nb := range a.of(v) {
							if slices.Contains(rep, nb) {
								continue
							}
							ext = extendInto(ext, rep, nb)
							hs.canonicalHash(ext)
							p, _ := slices.BinarySearch(ext, nb)
							hs.added = hs.addedEdges(hs.added[:0], ext, p)
							for inst := r.lo + 1; inst < r.hi; inst++ {
								members := lv.members(inst)
								nbs := a.of(members[i])
								if j >= len(nbs) || slices.Contains(members, nbs[j]) {
									continue
								}
								replay = extendInto(replay, members, nbs[j])
								got := hs.sameReplay(ext, p, replay, nbs[j])
								if want := hs.sameForm(ext, replay); got != want {
									t.Fatalf("%s level %d: sameReplay(%v, %d, %v) = %v, sameForm %v", name, lv.k, ext, p, replay, got, want)
								}
								if replay[p] == nbs[j] {
									fast++
								} else {
									fallback++
								}
								if got {
									kept++
								}
							}
						}
					}
				}
			}
		})
	}
	t.Logf("%d replays decided on the added node, %d by the full form; %d kept", fast, fallback, kept)
	if fast == 0 || kept == 0 {
		t.Error("no replay took the added-node path and kept its instance")
	}
}

// swappedJoinGraph builds two blocks of two dense layers reading the same
// input and joined by an Add. The first block's Add reads (first, second)
// and the second block's (second, first), so the two Adds list their
// predecessors in opposite orders: GraphNodes 0, 1 → 2 and 3, 4 → 5.
func swappedJoinGraph(t *testing.T) *ir.GNGraph {
	t.Helper()
	b := graph.NewBuilder("swapped")
	x := b.Input("x", graph.F32, graph.NewShape(32, 64))
	for i := 0; i < 2; i++ {
		b.SetLayer(fmt.Sprintf("block.%d", i))
		l := b.Dense("l", x, 64, graph.OpReLU)
		r := b.Dense("r", x, 64, graph.OpReLU)
		if i == 1 {
			l, r = r, l
		}
		x = b.Residual("join", l, r)
	}
	g, err := ir.Group(b.G)
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{g.Preds(g.Nodes[2])[0].ID, g.Preds(g.Nodes[5])[0].ID}; !slices.Equal(got, []int{0, 4}) {
		t.Fatalf("the joins' first predecessors are %v, want [0 4]", got)
	}
	return g
}

// TestReplayCheckHandBuilt drives sameReplay by hand where real models
// do not reach. On a chain of equal labels, an instance grown at the
// opposite end from the representative has its form although the added
// nodes sit at different member indices: that case must reach the full
// comparison. On the same chain, an added node with the representative's
// out-edges but not its in-edges must be told apart. And where two joins
// list their predecessors in opposite orders, the added node's edges must
// be compared as a set, not in adjacency order.
func TestReplayCheckHandBuilt(t *testing.T) {
	chain := chainGraph(t, 8) // GraphNodes 0 → 1 → … → 7, one label
	join := swappedJoinGraph(t)
	for _, c := range []struct {
		name     string
		g        *ir.GNGraph
		ref      []int32 // the representative's extension
		p        int     // its added node's member index
		in       []int32
		nb       int32
		same     bool
		fallback bool
	}{
		{"opposite end", chain, []int32{1, 2, 3}, 0, []int32{5, 6, 7}, 7, true, true},
		{"opposite end, edge missing", chain, []int32{1, 2, 3}, 0, []int32{4, 5, 7}, 7, false, true},
		{"same end", chain, []int32{1, 2, 3}, 0, []int32{4, 5, 6}, 4, true, false},
		{"out-edge missing", chain, []int32{1, 2, 3}, 0, []int32{0, 2, 3}, 0, false, false},
		{"in-edge missing", chain, []int32{1, 2, 3}, 2, []int32{4, 5, 7}, 7, false, false},
		{"predecessors swapped", join, []int32{0, 1, 2}, 2, []int32{3, 4, 5}, 5, true, false},
	} {
		m := newMiner(c.g, DefaultOptions())
		hs := m.newHasher()
		hs.canonicalHash(c.ref)
		hs.added = hs.addedEdges(hs.added[:0], c.ref, c.p)
		if fallback := c.in[c.p] != c.nb; fallback != c.fallback {
			t.Fatalf("%s: fallback %v, want %v", c.name, fallback, c.fallback)
		}
		got, want := hs.sameReplay(c.ref, c.p, c.in, c.nb), hs.sameForm(c.ref, c.in)
		if got != want || got != c.same {
			t.Errorf("%s: sameReplay %v, sameForm %v, want %v", c.name, got, want, c.same)
		}
	}
}
