package strategy

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/mining"
	"tapas/internal/models"
)

// TestLeafFilterMatchesUnfiltered is the oracle of the leaf filter: for
// every class of every registered model at W 2, 4, 8, 16 and 32, through
// the serial walk and a 3-worker prefix-task split, the filtered
// enumeration must return deeply equal candidates and equal stats to the
// walk that records every leaf. It also logs how many leaves the
// filtered serial walk recorded, and fails if it never skipped one.
func TestLeafFilterMatchesUnfiltered(t *testing.T) {
	names := models.Names()
	if testing.Short() {
		names = []string{"t5-100M", "moe-380M", "resnet-26M"}
	}
	ctx := context.Background()
	recorded, leaves := 0, 0
	for _, name := range names {
		g := groupModel(t, name)
		classes := mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions()))
		for _, w := range []int{2, 4, 8, 16, 32} {
			model := cost.Default(cluster.V100GPUs(w))
			for ci, c := range classes {
				for _, workers := range []int{1, 3} {
					opt := DefaultEnumOptions(w)
					opt.Workers = workers
					sh := newEnumShared(ctx, g, c.Representative(), model, opt)
					want, wantStats := sh.enumerate(false)
					got, stats := sh.enumerate(true)
					if !reflect.DeepEqual(got, want) || stats != wantStats {
						t.Fatalf("%s W=%d class %d workers=%d: filtered %d candidates %+v, unfiltered %d %+v",
							name, w, ci, workers, len(got), stats, len(want), wantStats)
					}
				}
				st := newEnumState(newEnumShared(ctx, g, c.Representative(), model, DefaultEnumOptions(w)), 0)
				st.startWalk(st.leaves, true)
				st.dfs(0, st.opt.MaxCandidates)
				recorded, leaves = recorded+st.out.len(), leaves+st.stats.Examined
			}
		}
	}
	if recorded == leaves {
		t.Fatalf("the filter recorded all %d leaves", leaves)
	}
	t.Logf("the filtered serial walks recorded %d of %d leaves", recorded, leaves)
}

// halfRunner round-trips the even-numbered tasks through ExecuteTasks,
// whose walks record every leaf, and leaves the odd-numbered ones
// missing, so the coordinator recomputes them with filtered walks.
type halfRunner struct{ roundTripRunner }

func (r *halfRunner) RunTasks(ctx context.Context, b TaskBatch) ([]TaskResult, error) {
	res, err := r.roundTripRunner.RunTasks(ctx, b)
	for i := 1; i < len(res); i += 2 {
		res[i] = TaskResult{Stats: EnumStats{Canceled: true}}
	}
	return res, err
}

// TestLeafFilterMergesWithTaskResults merges filtered pool walks with
// unfiltered TaskSpec results, on a pool of one worker and of four: the
// ranking must equal the unfiltered serial enumeration's, candidate for
// candidate, with the same stats.
func TestLeafFilterMergesWithTaskResults(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"t5-100M", "moe-380M", "bert-base"} {
		g, remote := groupModel(t, name), groupModel(t, name)
		for _, w := range []int{4, 8} {
			model := cost.Default(cluster.V100GPUs(w))
			for ci, c := range mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions())) {
				opt := DefaultEnumOptions(w)
				opt.Workers = 1
				want, wantStats := newEnumShared(ctx, g, c.Representative(), model, opt).enumerate(false)
				for _, workers := range []int{1, 4} {
					opt.Workers, opt.Runner = workers, &halfRunner{roundTripRunner{g: remote, model: cost.Default(cluster.V100GPUs(w))}}
					got, stats := EnumerateInstance(ctx, g, c.Representative(), model, opt)
					if !reflect.DeepEqual(got, want) || stats != wantStats {
						t.Fatalf("%s W=%d class %d workers=%d: merged %d candidates %+v, unfiltered serial %d %+v",
							name, w, ci, workers, len(got), stats, len(want), wantStats)
					}
				}
			}
		}
	}
}

// TestLeafFilterTiedAtTopK feeds leaves whose totals tie exactly at the
// TopK boundary through a filtered and an unfiltered state over real
// class menus, with prices from a small integer table and no intra-
// instance edges, so no leaf has events and the running total equals the
// priced one. Both must rank to the same assignments in
// the same order. It also counts the sets where the filtered walk kept no
// more records than TopK while the unfiltered one kept more: there,
// deciding between sorting every record and diverseTopK on the filtered
// count alone orders equal totals differently, which the test shows on
// at least one set.
func TestLeafFilterTiedAtTopK(t *testing.T) {
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
	hazards := 0
	for iter := range 2000 {
		sh := *shs[r.Intn(len(shs))]
		sh.opt.TopK = 1 + r.Intn(6)
		n := len(sh.instance)
		sh.in = make([][]inEdge, n)
		// A table of small integer prices and choices from a prefix of
		// each menu, so totals and incumbents repeat.
		sh.prices = make([][]price, n)
		limit := make([]int, n)
		for i, menu := range sh.menus {
			sh.prices[i] = make([]price, len(menu))
			for m := range menu {
				sh.prices[i][m] = price{cost.Breakdown{Compute: float64(r.Intn(2))}, int64(r.Intn(2))}
			}
			limit[i] = 1 + r.Intn(min(len(menu), 2))
		}
		leaves := make([][]int32, 1+r.Intn(3*sh.opt.TopK))
		for k := range leaves {
			leaves[k] = make([]int32, n)
			for i := range leaves[k] {
				leaves[k][i] = int32(r.Intn(limit[i]))
			}
		}
		// Cheapest-first, as the budgeted walk roughly finds them.
		totalOf := func(mi []int32) (s float64) {
			for i, m := range mi {
				s += sh.prices[i][m].cost.Total()
			}
			return s
		}
		slices.SortStableFunc(leaves, func(a, b []int32) int { return int(totalOf(a) - totalOf(b)) })

		filtered, all := newEnumState(&sh, 0), newEnumState(&sh, 0)
		filtered.startWalk(len(leaves), true)
		for _, st := range []*enumState{filtered, all} {
			for _, mi := range leaves {
				for i, m := range mi {
					st.mi[i] = m
					st.acc[i+1] = partial{st.acc[i].total + sh.prices[i][m].cost.Total(), st.acc[i].mem + sh.prices[i][m].mem}
				}
				st.complete()
			}
		}
		got, want := filtered.ranked(filtered.out), all.ranked(all.out)
		same := func(kf, ka []int32, f, a records) bool {
			return slices.EqualFunc(kf, ka, func(x, y int32) bool {
				return slices.Equal(f.at(int(x)), a.at(int(y))) && f.prices[x] == a.prices[y]
			})
		}
		if !same(got, want, filtered.out, all.out) {
			t.Fatalf("iteration %d, TopK %d, %d leaves: the filtered walk (%d recorded) ranks %v, the unfiltered %v",
				iter, sh.opt.TopK, len(leaves), filtered.out.len(), got, want)
		}
		if filtered.out.len() <= sh.opt.TopK && all.out.len() > sh.opt.TopK {
			blind := filtered.out
			blind.skipped = 0
			if !same(sh.ranked(blind), want, blind, all.out) {
				hazards++
			}
		}
	}
	if hazards == 0 {
		t.Fatal("no leaf set where ranking on the filtered count alone would reorder ties")
	}
	t.Logf("%d leaf sets where ranking on the filtered count alone reorders ties", hazards)
}
