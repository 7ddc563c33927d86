package strategy

import (
	"context"
	"slices"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
)

// directCheck is the shape check of position i without the memo: every
// menu entry validated afresh by eventsFor against the producers' choices
// held in st.
func directCheck(st *enumState, i int) (mis []int32, evs [][]comm.Event, pruned int) {
	for mi, p := range st.menus[i] {
		e, ok := st.eventsFor(nil, i, p)
		if !ok {
			pruned++
			continue
		}
		mis, evs = append(mis, int32(mi)), append(evs, e)
	}
	return mis, evs, pruned
}

// producersOf lists the distinct intra-instance producer positions of
// position i: the positions whose choices key its memo.
func producersOf(sh *enumShared, i int) []int32 {
	var ps []int32
	for _, e := range sh.in[i] {
		if !slices.Contains(ps, e.j) {
			ps = append(ps, e.j)
		}
	}
	return ps
}

// eachChoice calls f once for every combination of menu choices of the
// producers, with the choices assigned in st.
func eachChoice(st *enumState, producers []int32, f func()) {
	var rec func(d int)
	rec = func(d int) {
		if d == len(producers) {
			f()
			return
		}
		j := producers[d]
		for mi := range st.menus[j] {
			st.mi[j] = int32(mi)
			rec(d + 1)
		}
	}
	rec(0)
}

// memoAudit runs branchesAt at every position of sh's instance under every
// combination of its producers' choices, twice over, and holds each answer
// — memo miss or memo hit — to directCheck: the same menu indices, the
// same events and the same prune count. It returns how many answers were
// memo hits.
func memoAudit(t *testing.T, sh *enumShared, what string) (hits int) {
	t.Helper()
	st := newEnumState(sh, 0)
	for pass := range 2 {
		for i := range sh.instance {
			eachChoice(st, producersOf(sh, i), func() {
				before := st.stats.Pruned
				brs := st.branchesAt(i)
				pruned := st.stats.Pruned - before
				mis, evs, wantPruned := directCheck(st, i)
				got := make([]int32, len(brs))
				for b, br := range brs {
					got[b] = br.mi
					if br.p != st.menus[i][br.mi] {
						t.Fatalf("%s position %d: branch %d carries a pattern other than menu entry %d", what, i, b, br.mi)
					}
				}
				if !slices.Equal(got, mis) || pruned != wantPruned ||
					!slices.EqualFunc(brs, evs, func(br branch, e []comm.Event) bool { return slices.Equal(br.evs, e) }) {
					t.Fatalf("%s position %d pass %d, producer choices %v: memo gives entries %v (%d pruned), a direct check %v (%d pruned)",
						what, i, pass, choicesOf(st, producersOf(sh, i)), got, pruned, mis, wantPruned)
				}
				if pass == 1 && sh.memoOff[i] >= 0 {
					hits++
				}
			})
		}
	}
	return hits
}

// choicesOf returns the menu indices the producers hold in st.
func choicesOf(st *enumState, producers []int32) []int32 {
	out := make([]int32, len(producers))
	for d, j := range producers {
		out[d] = st.mi[j]
	}
	return out
}

// TestBranchMemoMatchesDirectCheck holds the enumeration's branch memo to
// the shape check it memoizes: for every class of every registered model
// at W 2, 4, 8, 16 and 32, each position's memoized answer under every
// combination of its producers' menu choices must equal a fresh eventsFor
// scan of its menu. A hand-built instance, where an add's compatibility
// is decided by the layout of its second input alone, makes a key that
// dropped a producer fail.
func TestBranchMemoMatchesDirectCheck(t *testing.T) {
	ctx := context.Background()
	ws := []int{2, 4, 8, 16, 32}
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			g := groupModel(t, name)
			classes := mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions()))
			hits := 0
			for _, w := range ws {
				model := cost.Default(cluster.V100GPUs(w))
				for _, c := range classes {
					sh := newEnumShared(ctx, g, c.Representative(), model, DefaultEnumOptions(w))
					hits += memoAudit(t, sh, name)
				}
			}
			if hits == 0 {
				t.Fatal("no memo hit checked")
			}
			t.Logf("%d classes × %d W: %d memo hits checked", len(classes), len(ws), hits)
		})
	}

	t.Run("second-input-decides", func(t *testing.T) {
		b := graph.NewBuilder("two-producers")
		x := b.Input("x", graph.F32, graph.NewShape(32, 256))
		left := b.Dense("left", x, 256, graph.OpIdentity)
		right := b.Dense("right", x, 256, graph.OpIdentity)
		sum := b.Residual("sum", left, right)
		b.Op(graph.OpCrossEntropy, "loss", graph.NewShape(32), sum)
		g, err := ir.Group(b.G)
		if err != nil {
			t.Fatal(err)
		}
		const w = 4
		opt := DefaultEnumOptions(w)
		opt.AllowReshard = false
		sh := newEnumShared(ctx, g, g.TopoOrder(), cost.Default(cluster.V100GPUs(w)), opt)
		// The add has two producers, and two choices of its second input's
		// producer under one choice of the first must prune differently.
		st := newEnumState(sh, 0)
		decides := false
		for i := range sh.instance {
			var first, second int32 = -1, -1
			for _, e := range sh.in[i] {
				if e.primary {
					first = e.j
				} else {
					second = e.j
				}
			}
			if first < 0 || second < 0 {
				continue
			}
			byFirst := map[int32][]int{}
			eachChoice(st, []int32{first, second}, func() {
				_, _, pruned := directCheck(st, i)
				byFirst[st.mi[first]] = append(byFirst[st.mi[first]], pruned)
			})
			for _, prunes := range byFirst {
				decides = decides || slices.Min(prunes) != slices.Max(prunes)
			}
		}
		if !decides {
			t.Fatal("no position whose compatibility depends on its second producer's choice alone")
		}
		if hits := memoAudit(t, sh, "two-producers"); hits == 0 {
			t.Fatal("no memo hit checked")
		}
	})
}

// TestUnmemoizedPositionsMatch covers positions whose producers' choices
// span more than maxMemoSlots keys, which are checked afresh at every
// visit: with every position of every class forced onto that path, the
// audit still holds and a full budgeted walk records the same
// assignments, prices and stats as the memoized walk.
func TestUnmemoizedPositionsMatch(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"t5-100M", "moe-380M", "resnet-26M"} {
		g := groupModel(t, name)
		model := cost.Default(cluster.V100GPUs(8))
		for ci, c := range mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions())) {
			sh := newEnumShared(ctx, g, c.Representative(), model, DefaultEnumOptions(8))
			fresh := *sh
			fresh.memoOff, fresh.slots = make([]int32, len(sh.instance)), 0
			for i := range fresh.memoOff {
				fresh.memoOff[i] = -1
			}
			memoAudit(t, &fresh, name)
			want, got := newEnumState(sh, 0), newEnumState(&fresh, 0)
			want.dfs(0, sh.opt.MaxCandidates)
			got.dfs(0, sh.opt.MaxCandidates)
			if got.stats != want.stats || !slices.Equal(got.out.idx, want.out.idx) || !slices.Equal(got.out.prices, want.out.prices) {
				t.Fatalf("%s class %d: unmemoized walk records %d assignments %+v, memoized %d %+v",
					name, ci, got.out.len(), got.stats, want.out.len(), want.stats)
			}
		}
	}
}
