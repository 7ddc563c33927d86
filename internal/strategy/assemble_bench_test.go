package strategy

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

// assemblyInput is the input of greedy assembly for name at 8 GPUs:
// the graph, its classes in SearchFolded's order, and every class's
// candidates, enumerated once at Workers 1.
type assemblyInput struct {
	g       *ir.GNGraph
	model   *cost.Model
	opt     EnumOptions
	memory  int64
	ordered []*mining.Class
	cands   [][]*Candidate
}

func newAssemblyInput(tb testing.TB, name string) *assemblyInput {
	g := groupModel(tb, name)
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
			tb.Fatalf("class %d: no candidates", i)
		}
		cands[i] = cs
	}
	return &assemblyInput{g, model, opt, cl.MemoryPerGP, ordered, cands}
}

// run assembles and repairs the plan at the given worker count, as
// SearchFolded does after enumeration.
func (in *assemblyInput) run(tb testing.TB, workers int) {
	asm := newAssembler(in.g, in.ordered, in.model, in.opt, workers)
	assign, menus, chosen, err := asm.assemble(context.Background(), in.ordered, in.cands, in.memory)
	if err != nil {
		tb.Fatal(err)
	}
	if err := asm.repair(context.Background(), in.ordered, assign, menus, chosen, in.memory); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkAssemble isolates the greedy-assembly half of a folded
// search: candidates are enumerated once outside the timed loop, then
// each iteration re-runs scoring + greedy pick + memory repair through
// the assembler at several worker counts. Compare sub-benchmarks to see
// how the candidate-scoring fan-out behaves:
//
//	go test -run xxx -bench BenchmarkAssemble -benchmem ./internal/strategy
func BenchmarkAssemble(b *testing.B) {
	in := newAssemblyInput(b, "t5-770M")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.run(b, workers)
			}
		})
	}
}

// TestAssembleAllocationBudget holds assembly + repair at Workers 1 to a
// per-grouped-node allocation budget on the two deepest T5 graphs at 8
// GPUs, so allocations that grow faster than the graph fail here rather
// than in a benchmark. When positional slices replaced the per-candidate
// assignment maps, BenchmarkAssemble/workers=1 (t5-770M) went from
// 2,262 allocs/op and 720 KB/op to 956 allocs/op and 196 KB/op: 1.47
// allocations per grouped node on t5-770M and 1.32 on t5-1.4B, one of
// them the menu copy ir.PatternsFor returns per node. Assembly now makes
// 0.45 per grouped node on t5-770M (292 allocations) and 0.30 on t5-1.4B;
// the budget leaves a third of headroom over the larger.
func TestAssembleAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates two deep graphs")
	}
	const budget = 0.6
	for _, name := range []string{"t5-770M", "t5-1.4B"} {
		in := newAssemblyInput(t, name)
		allocs := testing.AllocsPerRun(3, func() { in.run(t, 1) })
		perNode := allocs / float64(len(in.g.Nodes))
		t.Logf("%s: %.0f allocs for %d grouped nodes, %.2f per node", name, allocs, len(in.g.Nodes), perNode)
		if perNode > budget {
			t.Errorf("%s: assembly allocates %.2f times per grouped node, budget %v", name, perNode, budget)
		}
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
			asm := newAssembler(g, classes, model, opt, 1)
			scoredN := 0
			for ci, c := range classes {
				frozen := slices.Clone(plan.Assign)
				for _, inst := range c.Instances {
					for _, gn := range inst {
						frozen[gn.ID] = nil
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
func refScoreTotal(a *assembler, c *mining.Class, cand *Candidate, assign []*ir.Pattern) (float64, bool) {
	flat := a.applyCandidate(c, cand)
	if flat == nil {
		return 0, false
	}
	patts := make([]*ir.Pattern, len(a.g.Nodes))
	place(c, flat, patts)
	boundary := 0.0
	for _, inst := range c.Instances {
		for _, gn := range inst {
			for _, pred := range a.g.Preds(gn) {
				pf := assign[pred.ID]
				if pf == nil {
					pf = patts[pred.ID]
				}
				if pf == nil {
					continue
				}
				ev, ok := checkEdge(a.g, pred, gn, pf, patts[gn.ID], a.opt.W, a.opt.AllowReshard)
				if !ok {
					return 0, false
				}
				boundary += a.model.EventsCost(ev).Total()
			}
			for _, succ := range a.g.Succs(gn) {
				if pt := assign[succ.ID]; pt != nil {
					ev, ok := checkEdge(a.g, gn, succ, patts[gn.ID], pt, a.opt.W, a.opt.AllowReshard)
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

// TestSearchFoldedLeaksNoGoroutines checks that the enumeration and assembly
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
