package strategy

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

// raceSearch runs a folded search with tight budgets and the given worker
// count — small enough that `go test -race` covers the concurrent paths
// (class fan-out, prefix-task enumeration, the PatternsFor memo) in well
// under a second per run.
func raceSearch(t *testing.T, model string, w, workers, maxCands int) (*Strategy, *SearchStats) {
	t.Helper()
	g := groupModel(t, model)
	cl := cluster.V100GPUs(w)
	m := cost.Default(cl)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	opt := DefaultEnumOptions(w)
	opt.MaxCandidates = maxCands
	opt.Workers = workers
	s, st, err := SearchFolded(context.Background(), g, classes, m, opt, cl.MemoryPerGP)
	if err != nil {
		t.Fatalf("SearchFolded(%s, workers=%d): %v", model, workers, err)
	}
	return s, st
}

// TestSearchFoldedParallelRace drives the concurrent folded search under
// the race detector across the three architecture families. The t5 and
// moe models exercise multi-node classes (intra-class tree splitting);
// resnet exercises a wide class fan-out of small classes.
func TestSearchFoldedParallelRace(t *testing.T) {
	for _, model := range []string{"t5-100M", "moe-380M", "resnet-26M"} {
		model := model
		t.Run(model, func(t *testing.T) {
			ser, sst := raceSearch(t, model, 8, 1, 256)
			par, pst := raceSearch(t, model, 8, 8, 256)
			if ser.Describe() != par.Describe() {
				t.Errorf("plan diverged: serial %q parallel %q", ser.Describe(), par.Describe())
			}
			if sst.Examined != pst.Examined || sst.Pruned != pst.Pruned {
				t.Errorf("effort diverged: serial %d/%d parallel %d/%d",
					sst.Examined, sst.Pruned, pst.Examined, pst.Pruned)
			}
		})
	}
}

// TestSearchExhaustiveParallelRace drives the prefix-task split of a
// single decision tree under the race detector with a tight budget.
func TestSearchExhaustiveParallelRace(t *testing.T) {
	g := groupModel(t, "t5-100M")
	cl := cluster.V100GPUs(8)
	m := cost.Default(cl)
	opt := DefaultEnumOptions(8)
	opt.MaxCandidates = 512

	var base *Strategy
	var baseStats *SearchStats
	for _, workers := range []int{1, 8} {
		opt.Workers = workers
		s, st, err := SearchExhaustive(context.Background(), g, m, opt, cl.MemoryPerGP)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base, baseStats = s, st
			continue
		}
		if s.Describe() != base.Describe() {
			t.Errorf("workers=%d: ES plan %q != serial %q", workers, s.Describe(), base.Describe())
		}
		if st.Examined != baseStats.Examined {
			t.Errorf("workers=%d: examined %d != serial %d", workers, st.Examined, baseStats.Examined)
		}
	}
}

// TestEnumerateInstanceWorkerSweep pins the per-class determinism down to
// the candidate list itself: every worker count must yield the same
// candidates in the same order with the same costs.
func TestEnumerateInstanceWorkerSweep(t *testing.T) {
	g := groupModel(t, "t5-100M")
	cl := cluster.V100GPUs(8)
	m := cost.Default(cl)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	var layer *mining.Class
	for _, c := range classes {
		if layer == nil || c.Size() > layer.Size() {
			layer = c
		}
	}

	opt := DefaultEnumOptions(8)
	opt.MaxCandidates = 512
	opt.Workers = 1
	want, wantStats := EnumerateInstance(context.Background(), g, layer.Representative(), m, opt)

	for _, workers := range []int{2, 3, 8, 32} {
		opt.Workers = workers
		got, gotStats := EnumerateInstance(context.Background(), g, layer.Representative(), m, opt)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Cost.Total() != want[i].Cost.Total() || got[i].MemBytes != want[i].MemBytes {
				t.Errorf("workers=%d: candidate %d cost/mem (%v, %d) != (%v, %d)",
					workers, i, got[i].Cost.Total(), got[i].MemBytes, want[i].Cost.Total(), want[i].MemBytes)
			}
			if fmt.Sprint(patternNames(got[i])) != fmt.Sprint(patternNames(want[i])) {
				t.Errorf("workers=%d: candidate %d patterns %v != %v",
					workers, i, patternNames(got[i]), patternNames(want[i]))
			}
		}
		if gotStats != wantStats {
			t.Errorf("workers=%d: stats %+v != %+v", workers, gotStats, wantStats)
		}
	}
}

func patternNames(c *Candidate) []string {
	out := make([]string, len(c.Patterns))
	for i, p := range c.Patterns {
		out[i] = p.Name
	}
	return out
}

// TestSearchFoldedLeavesMenusUnchanged: ir.PatternsFor hands every
// caller its memoized menu itself, so a folded search (enumeration,
// assembly, repair, pricing) must only read it. After a full search of
// t5-100M at 8 GPUs on two workers, every node's menu is the same slice
// holding the same patterns in the same order, each with the same
// fields.
func TestSearchFoldedLeavesMenusUnchanged(t *testing.T) {
	const w = 8
	g := groupModel(t, "t5-100M")
	render := func(p *ir.Pattern) string {
		in2 := "nil"
		if p.In2 != nil {
			in2 = fmt.Sprint(*p.In2)
		}
		return fmt.Sprint(p.Name, p.W, p.In, p.Out, in2, p.WeightSpecs, p.FwdComm, p.BwdComm,
			p.FLOPsPerDev, p.WeightBytesPerDev, p.OutBytesPerDev, p.StillBytes, p.SRC)
	}
	type snapshot struct {
		menu     []*ir.Pattern // the memoized slice itself
		patterns []*ir.Pattern
		rendered []string
	}
	before := make([]snapshot, len(g.Nodes))
	for i, gn := range g.Nodes {
		ps := ir.PatternsFor(gn, w)
		before[i] = snapshot{menu: ps, patterns: slices.Clone(ps)}
		for _, p := range ps {
			before[i].rendered = append(before[i].rendered, render(p))
		}
	}

	cl := cluster.V100GPUs(w)
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	opt := DefaultEnumOptions(w)
	opt.Workers = 2
	if _, _, err := SearchFolded(context.Background(), g, classes, cost.Default(cl), opt, cl.MemoryPerGP); err != nil {
		t.Fatal(err)
	}

	for i, gn := range g.Nodes {
		ps, want := ir.PatternsFor(gn, w), before[i]
		if len(ps) != len(want.menu) || len(ps) > 0 && &ps[0] != &want.menu[0] {
			t.Fatalf("node %d: the memoized menu was replaced", gn.ID)
		}
		for j, p := range ps {
			if p != want.patterns[j] {
				t.Errorf("node %d: menu entry %d replaced or reordered", gn.ID, j)
			} else if got := render(p); got != want.rendered[j] {
				t.Errorf("node %d pattern %d mutated:\n got  %s\n want %s", gn.ID, j, got, want.rendered[j])
			}
		}
	}
}
