package strategy

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"testing"
	"time"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

// BenchmarkAssemble isolates the greedy-assembly half of a folded
// search: candidates are enumerated once outside the timed loop, then
// each iteration re-runs scoring + greedy pick + memory repair through
// the assembler at several worker counts. Compare sub-benchmarks to see
// how the candidate-scoring fan-out and the pooled scratch maps behave:
//
//	go test -run xxx -bench BenchmarkAssemble ./internal/strategy
func BenchmarkAssemble(b *testing.B) {
	g := groupModel(b, "t5-770M")
	const w = 8
	cl := cluster.V100GPUs(w)
	model := cost.Default(cl)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	opt := DefaultEnumOptions(w)
	opt.Workers = 1

	// One enumeration produces the candidate menus the assembly loop
	// consumes; SearchFolded's own class ordering is reproduced here so
	// the assembler sees exactly the production input.
	ordered := append([]*mining.Class{}, classes...)
	coverage := func(c *mining.Class) int { return len(c.Instances) * c.Size() }
	sort.Slice(ordered, func(i, j int) bool {
		ci, cj := coverage(ordered[i]), coverage(ordered[j])
		if ci != cj {
			return ci > cj
		}
		return ordered[i].Instances[0][0].ID < ordered[j].Instances[0][0].ID
	})
	cands := make([][]*Candidate, len(ordered))
	for i, c := range ordered {
		cs, _ := EnumerateInstance(context.Background(), g, c.Representative(), model, opt)
		if len(cs) == 0 {
			b.Fatalf("class %d: no candidates", i)
		}
		cands[i] = cs
	}

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				asm := newAssembler(g, model, opt, workers)
				assign, menus, chosen, err := asm.assemble(context.Background(), ordered, cands, cl.MemoryPerGP)
				if err != nil {
					b.Fatal(err)
				}
				if err := asm.repair(context.Background(), ordered, assign, menus, chosen, cl.MemoryPerGP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScoreCandidateSumsInInstanceOrder pins a scored candidate's total
// to an oracle that adds the boundary events' costs class instance by
// instance, member by member, predecessors before successors. Summing
// while ranging over the assignment map instead let a total change in its
// last bits from run to run. Each class is scored against the final plan
// with that class removed, so every edge into or out of it is a boundary,
// and every candidate is scored several times so map order would show.
func TestScoreCandidateSumsInInstanceOrder(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"t5-100M", "moe-380M", "bert-base", "resnet-26M"} {
		t.Run(name, func(t *testing.T) {
			g := groupModel(t, name)
			const w = 8
			cl := cluster.V100GPUs(w)
			model := cost.Default(cl)
			classes := mining.Fold(g, mining.Mine(ctx, g, mining.DefaultOptions()))
			opt := DefaultEnumOptions(w)
			opt.Workers = 1
			plan, _, err := SearchFolded(ctx, g, classes, model, opt, cl.MemoryPerGP)
			if err != nil {
				t.Fatal(err)
			}
			asm := newAssembler(g, model, opt, 1)
			scoredN := 0
			for ci, c := range classes {
				frozen := maps.Clone(plan.Assign)
				for _, inst := range c.Instances {
					for _, gn := range inst {
						delete(frozen, gn)
					}
				}
				cands, _ := EnumerateInstance(ctx, g, c.Representative(), model, opt)
				for k, cand := range cands {
					want, wantOK := refScoreTotal(asm, c, cand, frozen)
					for rep := 0; rep < 8; rep++ {
						got, ok := asm.scoreCandidate(c, cand, frozen)
						if ok != wantOK || ok && got.total != want {
							t.Fatalf("class %d candidate %d: scoreCandidate = (%v, %v), instance-order oracle (%v, %v)", ci, k, got.total, ok, want, wantOK)
						}
						if ok {
							asm.putPatts(got.patts)
						}
					}
					if wantOK {
						scoredN++
					}
				}
			}
			if scoredN == 0 {
				t.Fatal("no candidate scored feasible")
			}
		})
	}
}

// refScoreTotal prices cand on every instance of c against assign the way
// assembly must: internal cost × instance count, plus each boundary
// edge's events added in c.Instances order.
func refScoreTotal(a *assembler, c *mining.Class, cand *Candidate, assign map[*ir.GraphNode]*ir.Pattern) (float64, bool) {
	patts := map[*ir.GraphNode]*ir.Pattern{}
	if !applyCandidate(c, cand, a.menuOf, patts) {
		return 0, false
	}
	boundary := 0.0
	for _, inst := range c.Instances {
		for _, gn := range inst {
			for _, pred := range a.g.Preds(gn) {
				pf := assign[pred]
				if pf == nil {
					pf = patts[pred]
				}
				if pf == nil {
					continue
				}
				ev, ok := checkEdge(a.g, pred, gn, pf, patts[gn], a.opt.W, a.opt.AllowReshard)
				if !ok {
					return 0, false
				}
				boundary += a.model.EventsCost(ev).Total()
			}
			for _, succ := range a.g.Succs(gn) {
				if pt := assign[succ]; pt != nil {
					ev, ok := checkEdge(a.g, gn, succ, patts[gn], pt, a.opt.W, a.opt.AllowReshard)
					if !ok {
						return 0, false
					}
					boundary += a.model.EventsCost(ev).Total()
				}
			}
		}
	}
	return cand.Cost.Total()*float64(len(c.Instances)) + boundary, true
}

// TestAssemblyLeavesMenusPristine is the strategy-side half of the
// shared-pattern immutability contract (internal/ir's property test is
// the other): a full folded search scores thousands of candidates
// against memo-shared *Pattern values, and none of that may write
// through them. Menus are snapshotted by Clone before the search and
// compared field-for-field after.
func TestAssemblyLeavesMenusPristine(t *testing.T) {
	g := groupModel(t, "t5-100M")
	const w = 8
	cl := cluster.V100GPUs(w)
	m := cost.Default(cl)

	type snap struct {
		ps     []*ir.Pattern
		clones []*ir.Pattern
	}
	snaps := make([]snap, 0, len(g.Nodes))
	for _, gn := range g.Nodes {
		ps := ir.PatternsFor(gn, w)
		clones := make([]*ir.Pattern, len(ps))
		for i, p := range ps {
			clones[i] = p.Clone()
		}
		snaps = append(snaps, snap{ps, clones})
	}

	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	opt := DefaultEnumOptions(w)
	opt.Workers = 8
	if _, _, err := SearchFolded(context.Background(), g, classes, m, opt, cl.MemoryPerGP); err != nil {
		t.Fatalf("SearchFolded: %v", err)
	}

	for _, s := range snaps {
		for i, p := range s.ps {
			c := s.clones[i]
			if p.Name != c.Name || p.W != c.W || p.In != c.In || p.Out != c.Out ||
				p.FLOPsPerDev != c.FLOPsPerDev || p.WeightBytesPerDev != c.WeightBytesPerDev ||
				p.OutBytesPerDev != c.OutBytesPerDev || p.SRC != c.SRC ||
				len(p.WeightSpecs) != len(c.WeightSpecs) ||
				len(p.FwdComm) != len(c.FwdComm) || len(p.BwdComm) != len(c.BwdComm) {
				t.Fatalf("pattern %q mutated by assembly", c.Name)
			}
			for j := range p.WeightSpecs {
				if p.WeightSpecs[j] != c.WeightSpecs[j] {
					t.Fatalf("pattern %q weight spec %d mutated", c.Name, j)
				}
			}
			for j := range p.FwdComm {
				if p.FwdComm[j] != c.FwdComm[j] {
					t.Fatalf("pattern %q fwd event %d mutated", c.Name, j)
				}
			}
			for j := range p.BwdComm {
				if p.BwdComm[j] != c.BwdComm[j] {
					t.Fatalf("pattern %q bwd event %d mutated", c.Name, j)
				}
			}
		}
	}
}

// TestSearchFoldedLeaksNoGoroutines checks that the assembly and repair
// fan-outs drain their pools completely: after a parallel search returns,
// the process goroutine count settles back to its pre-search level.
func TestSearchFoldedLeaksNoGoroutines(t *testing.T) {
	raceSearch(t, "t5-100M", 8, 1, 128) // warm any lazy runtime state
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		raceSearch(t, "t5-100M", 8, 8, 128)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after parallel searches", base, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
