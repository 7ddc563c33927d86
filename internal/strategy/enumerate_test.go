package strategy

import (
	"context"
	"slices"
	"sort"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
)

// refEventsFor and refComplete are the map-based enumeration kernel this
// package used before the edge table, the per-depth scratch and the
// positional memory sum (a member map looked up per predecessor, the edge
// tensor recomputed at every check, a fresh event slice per call, a
// whole-graph assignment handed to MemoryPerDevice), kept as the oracle: the
// kernel may change its layout but never a candidate.
func refEventsFor(g *ir.GNGraph, instance []*ir.GraphNode, member map[*ir.GraphNode]int, assigned []*ir.Pattern, i int, p *ir.Pattern, opt EnumOptions) ([]comm.Event, bool) {
	gn := instance[i]
	var evs []comm.Event
	for _, pred := range g.Preds(gn) {
		j, in := member[pred]
		if !in || assigned[j] == nil {
			continue // boundary edge: resolved at assembly
		}
		ev, c := checkEdge(g, pred, gn, assigned[j], p, opt.W, opt.AllowReshard)
		if !c {
			return nil, false
		}
		evs = append(evs, ev...)
	}
	return evs, true
}

// refComplete rebuilds the candidate for patterns by replaying them in
// position order through refEventsFor; memory is MemoryPerDevice's sum in
// GraphNode.ID order. ok is false when some edge check rejects a pattern.
func refComplete(g *ir.GNGraph, instance []*ir.GraphNode, model *cost.Model, opt EnumOptions, patterns []*ir.Pattern) (*Candidate, bool) {
	member := make(map[*ir.GraphNode]int, len(instance))
	for i, gn := range instance {
		member[gn] = i
	}
	assigned := make([]*ir.Pattern, len(instance))
	var reshard []comm.Event
	for i, p := range patterns {
		evs, ok := refEventsFor(g, instance, member, assigned, i, p, opt)
		if !ok {
			return nil, false
		}
		assigned[i] = p
		reshard = append(reshard, evs...)
	}
	assign := make([]*ir.Pattern, len(g.Nodes))
	for j, gn := range instance {
		assign[gn.ID] = assigned[j]
	}
	return &Candidate{
		Patterns: assigned,
		Reshard:  reshard,
		MemBytes: MemoryPerDevice(g, assign),
		Cost:     model.StrategyCost(assigned, reshard),
	}, true
}

// sameCandidate reports whether two candidates are bit-identical: the
// same *Pattern at every position, the same events in the same order,
// the same memory and the same cost breakdown.
func sameCandidate(a, b *Candidate) bool {
	return slices.Equal(a.Patterns, b.Patterns) && slices.Equal(a.Reshard, b.Reshard) &&
		a.MemBytes == b.MemBytes && a.Cost == b.Cost
}

// TestEnumerationMatchesReference holds every candidate of every class of
// every registered model, at W 4 and 8, to the reference kernel — tree
// candidates and seeds alike (TopK 0 keeps them all) — through the serial
// walk, the 4-worker prefix-task split, and a TaskRunner that round-trips
// the tasks through ExecuteTasks and rebuilds their candidates from menu
// indices. It also replays every prefix splitTasks hands out: the events
// the branch memo gives each replayed choice must equal a fresh reference
// replay of the prefix.
func TestEnumerationMatchesReference(t *testing.T) {
	names := models.Names()
	if testing.Short() {
		names = []string{"t5-100M", "moe-380M", "resnet-26M"}
	}
	ctx := context.Background()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			g := groupModel(t, name)
			remote := groupModel(t, name) // the executor's own copy
			// Every class's representative; for t5-100M also the whole
			// graph, the TAPAS-ES instance, where both users of the tied
			// embedding sit in one instance and memory depends on which
			// one owns it. (Whole graphs of the larger models add a minute
			// and no new case.)
			var instances [][]*ir.GraphNode
			for _, c := range mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions())) {
				instances = append(instances, c.Representative())
			}
			if name == "t5-100M" {
				instances = append(instances, g.TopoOrder())
			}
			checked, prefixes := 0, 0
			defer func() {
				t.Logf("%d instances: %d candidates, %d task prefixes checked", len(instances), checked, prefixes)
			}()
			for _, w := range []int{4, 8} {
				model := cost.Default(cluster.V100GPUs(w))
				runs := []struct {
					name    string
					workers int
					runner  TaskRunner
				}{
					{"workers=1", 1, nil},
					{"workers=4", 4, nil},
					{"runner", 4, &roundTripRunner{g: remote, model: cost.Default(cluster.V100GPUs(w))}},
				}
				for ci, inst := range instances {
					var want []*Candidate
					var wantStats EnumStats
					for ri, run := range runs {
						opt := DefaultEnumOptions(w)
						opt.TopK = 0
						opt.Workers, opt.Runner = run.workers, run.runner
						got, stats := EnumerateInstance(ctx, g, inst, model, opt)
						if len(got) == 0 {
							t.Fatalf("W=%d instance %d %s: no candidates", w, ci, run.name)
						}
						checked += len(got)
						for k, cand := range got {
							ref, ok := refComplete(g, inst, model, opt, cand.Patterns)
							if !ok {
								t.Fatalf("W=%d instance %d %s: candidate %d fails the reference edge checks", w, ci, run.name, k)
							}
							if !sameCandidate(cand, ref) {
								t.Fatalf("W=%d instance %d %s: candidate %d = {mem %d, cost %+v, %d events}, reference {mem %d, cost %+v, %d events}",
									w, ci, run.name, k, cand.MemBytes, cand.Cost, len(cand.Reshard), ref.MemBytes, ref.Cost, len(ref.Reshard))
							}
						}
						if ri == 0 {
							want, wantStats = got, stats
							continue
						}
						if !slices.EqualFunc(got, want, sameCandidate) || stats != wantStats {
							t.Fatalf("W=%d instance %d %s: %d candidates %+v, serial %d %+v", w, ci, run.name, len(got), stats, len(want), wantStats)
						}
					}

					sh := newEnumShared(ctx, g, inst, model, DefaultEnumOptions(w))
					// Deep enough that one depth is expanded many times under
					// prefixes whose events differ.
					tasks, _ := splitTasks(sh, 512)
					prefixes += len(tasks)
					member := make(map[*ir.GraphNode]int, len(inst))
					for i, gn := range inst {
						member[gn] = i
					}
					st := newEnumState(sh, 0)
					for ti, tk := range tasks {
						if err := replayPrefix(st, tk.Prefix); err != nil {
							t.Fatalf("W=%d instance %d task %d: %v", w, ci, ti, err)
						}
						assigned := make([]*ir.Pattern, len(inst))
						for d, m := range tk.Prefix {
							p := sh.menus[d][m]
							evs, ok := refEventsFor(g, inst, member, assigned, d, p, sh.opt)
							if got := st.eventsAt(d); !ok || !slices.Equal(evs, got) {
								t.Fatalf("W=%d instance %d task %d depth %d: events %v, fresh replay %v (ok %v)", w, ci, ti, d, got, evs, ok)
							}
							assigned[d] = p
						}
					}
				}
			}
		})
	}
}

// refRank is the pointer-based ranking this package used before the
// walk recorded menu indices, kept as the oracle of the record ranking: a
// stable sort of every candidate by total cost, then diverseTopK over the
// *Candidate list — per boundary node the cheapest candidate exposing each
// distinct input and output layout, the lightest-memory one, the cheapest
// up to topK, the kept ones stably re-sorted by cost.
func refRank(g *ir.GNGraph, instance []*ir.GraphNode, topK int, cands []*Candidate) []*Candidate {
	cands = slices.Clone(cands)
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].Cost.Total() < cands[b].Cost.Total()
	})
	if topK <= 0 || len(cands) <= topK {
		return cands
	}
	member := make(map[*ir.GraphNode]bool, len(instance))
	for _, gn := range instance {
		member[gn] = true
	}
	var boundary []int
	for i, gn := range instance {
		external := len(g.Preds(gn)) == 0 || len(g.Succs(gn)) == 0
		for _, p := range g.Preds(gn) {
			external = external || !member[p]
		}
		for _, s := range g.Succs(gn) {
			external = external || !member[s]
		}
		if external {
			boundary = append(boundary, i)
		}
	}
	keptSet := map[*Candidate]bool{}
	var kept []*Candidate
	keep := func(c *Candidate) {
		if !keptSet[c] {
			keptSet[c] = true
			kept = append(kept, c)
		}
	}
	for _, i := range boundary {
		seenIn := map[int]bool{}
		seenOut := map[int]bool{}
		for _, c := range cands {
			if ax := c.Patterns[i].In.Axis; !seenIn[ax] {
				seenIn[ax] = true
				keep(c)
			}
			if ax := c.Patterns[i].Out.Axis; !seenOut[ax] {
				seenOut[ax] = true
				keep(c)
			}
		}
	}
	light := cands[0]
	for _, c := range cands[1:] {
		if c.MemBytes < light.MemBytes {
			light = c
		}
	}
	keep(light)
	for _, c := range cands {
		if len(kept) >= topK {
			break
		}
		keep(c)
	}
	sort.SliceStable(kept, func(a, b int) bool {
		return kept[a].Cost.Total() < kept[b].Cost.Total()
	})
	return kept
}

// recordedOrder materialises every assignment the serial walk and the
// seeds record, in the order they are recorded: the list the pointer-based
// kernel handed to its stable sort.
func recordedOrder(t *testing.T, sh *enumShared) []*Candidate {
	st := newEnumState(sh, sh.leaves+seedCount)
	st.dfs(0, sh.opt.MaxCandidates)
	st.appendSeeds(&st.out)
	rs := newEnumState(sh, 0)
	out := make([]*Candidate, st.out.len())
	for k := range out {
		if err := replayPrefix(rs, st.out.at(k)); err != nil {
			t.Fatal(err)
		}
		out[k] = rs.newCandidate(st.out.prices[k])
	}
	return out
}

// TestRankingMatchesReference holds the record ranking to refRank: for
// every class of every registered model, at W 4 and 8, through the serial
// walk, the 4-worker prefix-task split and a round-tripping TaskRunner,
// EnumerateInstance at the default TopK must return exactly refRank of its
// own TopK 0 output, candidate for candidate and in the same order, ties
// included. The TopK 0 output must itself be refRank's stable sort of the
// assignments in recorded order, which pins the order of equal costs.
func TestRankingMatchesReference(t *testing.T) {
	names := models.Names()
	if testing.Short() {
		names = []string{"t5-100M", "moe-380M", "resnet-26M"}
	}
	ctx := context.Background()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			g := groupModel(t, name)
			remote := groupModel(t, name)
			classes := mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions()))
			ranked := 0
			for _, w := range []int{4, 8} {
				model := cost.Default(cluster.V100GPUs(w))
				runs := []struct {
					name    string
					workers int
					runner  TaskRunner
				}{
					{"workers=1", 1, nil},
					{"workers=4", 4, nil},
					{"runner", 4, &roundTripRunner{g: remote, model: cost.Default(cluster.V100GPUs(w))}},
				}
				for ci, c := range classes {
					inst := c.Representative()
					sorted := refRank(g, inst, 0, recordedOrder(t, newEnumShared(ctx, g, inst, model, DefaultEnumOptions(w))))
					for _, run := range runs {
						opt := DefaultEnumOptions(w)
						opt.Workers, opt.Runner = run.workers, run.runner
						all := opt
						all.TopK = 0
						every, _ := EnumerateInstance(ctx, g, inst, model, all)
						if !slices.EqualFunc(every, sorted, sameCandidate) {
							t.Fatalf("W=%d class %d %s: TopK 0 output of %d candidates is not the stable sort of the %d recorded", w, ci, run.name, len(every), len(sorted))
						}
						got, _ := EnumerateInstance(ctx, g, inst, model, opt)
						want := refRank(g, inst, opt.TopK, every)
						if !slices.EqualFunc(got, want, sameCandidate) {
							t.Fatalf("W=%d class %d %s: ranked %d of %d candidates, reference keeps %d", w, ci, run.name, len(got), len(every), len(want))
						}
						if len(every) > opt.TopK {
							ranked++
						}
					}
				}
			}
			t.Logf("%d classes: %d enumerations cut to TopK", len(classes), ranked)
		})
	}
}

// TestEnumerateAllocationBudget holds the enumeration's allocation count
// inside tier-1: the map-based kernel made about 127,000 allocations per
// call on t5-100M's largest class (an assignment map per candidate, a
// fresh branch and event slice per tree node), the position-indexed one
// about 24,000 (a *Candidate with two slices per complete assignment),
// the record walk, which materialises only the kept candidates, 191,
// the memoized walk with selection ranking, whose per-depth check scratch
// became one memo table and two arenas per walk state, 145, and the
// filtered walk, which records only the leaves ranking could keep, in a
// buffer that starts small, and shares one walk state and its memo with
// the seeds and ranking, over menus and edge tables carved from flat
// arrays, 85.
func TestEnumerateAllocationBudget(t *testing.T) {
	g := groupModel(t, "t5-100M")
	model := cost.Default(cluster.V100GPUs(8))
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	var layer *mining.Class
	for _, c := range classes {
		if layer == nil || c.Size() > layer.Size() {
			layer = c
		}
	}
	opt := DefaultEnumOptions(8)
	opt.Workers = 1
	allocs := testing.AllocsPerRun(3, func() {
		EnumerateInstance(context.Background(), g, layer.Representative(), model, opt)
	})
	if allocs > 100 {
		t.Errorf("EnumerateInstance(t5-100M largest class, W 8, Workers 1) made %.0f allocations, budget 100", allocs)
	}
	t.Logf("EnumerateInstance(t5-100M largest class, W 8, Workers 1): %.0f allocations", allocs)
}
