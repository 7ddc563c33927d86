package strategy

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/mining"
)

// sortRanked is the ranking this package used before the selection path,
// kept as the oracle of ranked: sort every record by (total, index), hand
// the order to sortDiverseTopK unless TopK keeps everything.
func sortRanked(sh *enumShared, recs records) []int32 {
	type key struct {
		total float64
		k     int32
	}
	keys := make([]key, recs.len())
	for k, p := range recs.prices {
		keys[k] = key{p.cost.Total(), int32(k)}
	}
	slices.SortFunc(keys, func(a, b key) int { return cmp.Or(cmp.Compare(a.total, b.total), cmp.Compare(a.k, b.k)) })
	order := make([]int32, len(keys))
	for j, key := range keys {
		order[j] = key.k
	}
	return sortDiverseTopK(sh, recs, order)
}

// sortDiverseTopK walks the sorted order: per boundary node the first
// record exposing each distinct input and output layout, the first of the
// lightest, the first records up to TopK, the kept ones stably re-sorted
// by total.
func sortDiverseTopK(sh *enumShared, recs records, order []int32) []int32 {
	g, topK := sh.g, sh.opt.TopK
	if topK <= 0 || len(order) <= topK {
		return order
	}
	var boundary []int
	for i, gn := range sh.instance {
		external := len(g.Preds(gn)) == 0 || len(g.Succs(gn)) == 0
		for _, p := range g.Preds(gn) {
			external = external || sh.pos[p.ID] < 0
		}
		for _, s := range g.Succs(gn) {
			external = external || sh.pos[s.ID] < 0
		}
		if external {
			boundary = append(boundary, i)
		}
	}
	keptSet := make([]bool, recs.len())
	var kept []int32
	keep := func(k int32) {
		if !keptSet[k] {
			keptSet[k] = true
			kept = append(kept, k)
		}
	}
	var seenIn, seenOut []int
	for _, i := range boundary {
		seenIn, seenOut = seenIn[:0], seenOut[:0]
		for _, k := range order {
			p := sh.menus[i][recs.idx[int(k)*recs.n+i]]
			if ax := p.In.Axis; !slices.Contains(seenIn, ax) {
				seenIn = append(seenIn, ax)
				keep(k)
			}
			if ax := p.Out.Axis; !slices.Contains(seenOut, ax) {
				seenOut = append(seenOut, ax)
				keep(k)
			}
		}
	}
	light := order[0]
	for _, k := range order[1:] {
		if recs.prices[k].mem < recs.prices[light].mem {
			light = k
		}
	}
	keep(light)
	for _, k := range order {
		if len(kept) >= topK {
			break
		}
		keep(k)
	}
	slices.SortStableFunc(kept, func(a, b int32) int {
		return cmp.Compare(recs.prices[a].cost.Total(), recs.prices[b].cost.Total())
	})
	return kept
}

// TestRankedMatchesSort holds the selection ranking to the sort-based
// oracle on random record sets over real class instances: a handful of
// distinct totals and memory sizes so ties are everywhere, choices drawn
// from a prefix of each menu so layouts repeat and some entries never
// appear, at TopK 0, 1, 16 and more than the record count.
func TestRankedMatchesSort(t *testing.T) {
	ctx := context.Background()
	var shs []*enumShared
	for _, name := range []string{"t5-100M", "moe-380M", "resnet-26M", "bert-base"} {
		g := groupModel(t, name)
		model := cost.Default(cluster.V100GPUs(8))
		for _, c := range mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions())) {
			shs = append(shs, newEnumShared(ctx, g, c.Representative(), model, DefaultEnumOptions(8)))
		}
	}
	r := rand.New(rand.NewSource(1))
	cut := 0
	for iter := range 400 {
		sh := shs[r.Intn(len(shs))]
		n := len(sh.instance)
		limit := make([]int, n)
		for i, menu := range sh.menus {
			limit[i] = 1 + r.Intn(len(menu))
		}
		totals, mems := 1+r.Intn(6), 1+r.Intn(4)
		recs := sh.newRecords(0)
		mi := make([]int32, n)
		for range 1 + r.Intn(200) {
			for i := range mi {
				mi[i] = int32(r.Intn(limit[i]))
			}
			recs.add(mi, price{cost.Breakdown{Compute: float64(r.Intn(totals)), Trans: 0.5 * float64(r.Intn(2))}, int64(r.Intn(mems))})
		}
		for _, topK := range []int{0, 1, 16, recs.len() + 1 + r.Intn(8)} {
			shk := *sh
			shk.opt.TopK = topK
			got, want := shk.ranked(recs), sortRanked(&shk, recs)
			if !slices.Equal(got, want) {
				t.Fatalf("iteration %d, %d records, TopK %d: selection keeps %v, the sort %v", iter, recs.len(), topK, got, want)
			}
			if topK > 0 && recs.len() > topK {
				cut++
			}
		}
	}
	t.Logf("%d record sets cut by TopK", cut)
}
