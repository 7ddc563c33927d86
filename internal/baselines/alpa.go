package baselines

import (
	"context"
	"fmt"
	"time"

	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// AlpaOptions bound the Alpa-like search.
type AlpaOptions struct {
	// MaxSegment caps the operator-cluster length considered by the
	// inter-op dynamic program.
	MaxSegment int
	// InnerBudget is the intra-op enumeration budget per segment.
	InnerBudget int
	// TimeBudget aborts the search (best-so-far is returned).
	TimeBudget time.Duration
}

// DefaultAlpaOptions mirrors the knobs we use across the evaluation.
func DefaultAlpaOptions() AlpaOptions {
	return AlpaOptions{MaxSegment: 24, InnerBudget: 64, TimeBudget: 10 * time.Minute}
}

// AlpaStats reports the search effort.
type AlpaStats struct {
	Segments int // (i,j) windows whose intra-op pass ran
	Examined int // complete intra-op assignments validated
	Elapsed  time.Duration
	TimedOut bool
}

// AlpaSearch emulates Alpa's two-level optimization on the unfolded
// GraphNode graph: an outer dynamic program partitions the topological
// operator sequence into clusters (the inter-op pass), querying an inner
// enumeration for the intra-op cost of every candidate segment — the
// structure that gives Alpa its O(V²L(V+E²)) complexity in Table 1.
// Unlike TAPAS it never exploits repeated substructures, so its work grows
// superlinearly with the (unfolded) graph, reproducing the search-time gap
// of Figures 1 and 6 from first principles rather than hard-coded
// constants.
//
// Cancelling ctx behaves like hitting the time budget: the intra-op pass
// stops and the dynamic program runs on the segments scored so far (or
// fails if none were).
func AlpaSearch(ctx context.Context, g *ir.GNGraph, w int, model *cost.Model, opt AlpaOptions) (*strategy.Strategy, *AlpaStats, error) {
	start := time.Now()
	stats := &AlpaStats{}
	nodes := g.TopoOrder()
	n := len(nodes)
	if opt.MaxSegment < 1 {
		opt.MaxSegment = 24
	}

	type segResult struct {
		cand *strategy.Candidate
		cost float64
	}
	// Intra-op pass for every candidate segment [i, j).
	segBest := make(map[[2]int]segResult)
	enumOpt := strategy.EnumOptions{
		W:             w,
		MaxCandidates: opt.InnerBudget,
		TopK:          4,
		AllowReshard:  true,
	}
	score := func(i, j int) {
		cands, es := strategy.EnumerateInstance(ctx, g, nodes[i:j], model, enumOpt)
		stats.Segments++
		stats.Examined += es.Examined
		if len(cands) > 0 {
			segBest[[2]int{i, j}] = segResult{cands[0], cands[0].Cost.Total()}
		}
	}
	// Width-1 segments first: they are cheap (one menu per node) and
	// guarantee the dynamic program below always closes, so an expired
	// budget degrades to a per-node segmentation instead of failing —
	// the documented best-so-far contract.
	timedOut := false
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			timedOut = true
			break
		}
		score(i, i+1)
	}
	// Wider windows as the budget allows.
	for i := 0; i < n && !timedOut; i++ {
		for j := i + 2; j <= n && j-i <= opt.MaxSegment; j++ {
			if ctx.Err() != nil || (opt.TimeBudget > 0 && time.Since(start) > opt.TimeBudget) {
				timedOut = true
				break
			}
			score(i, j)
		}
	}
	stats.TimedOut = timedOut

	// Inter-op dynamic program over segment boundaries.
	const inf = 1e18
	dp := make([]float64, n+1)
	back := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = inf
		back[i] = -1
		for j := max(0, i-opt.MaxSegment); j < i; j++ {
			sr, ok := segBest[[2]int{j, i}]
			if !ok {
				continue
			}
			if c := dp[j] + sr.cost; c < dp[i] {
				dp[i] = c
				back[i] = j
			}
		}
	}
	if back[n] == -1 {
		// Distinguish "cancelled before the width-1 pass covered the
		// chain" from a genuine infeasibility, so interrupts propagate as
		// context errors rather than search failures.
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("alpa: no feasible segmentation")
	}

	// Stitch the chosen segments into one assignment.
	assign := make([]*ir.Pattern, n)
	for i := n; i > 0; i = back[i] {
		j := back[i]
		sr := segBest[[2]int{j, i}]
		for k, gn := range nodes[j:i] {
			assign[gn.ID] = sr.cand.Patterns[k]
		}
	}

	// Segment boundaries may disagree; repair with layout propagation
	// like the expert planners do.
	for _, gn := range nodes {
		p := assign[gn.ID]
		ok := true
		for _, pred := range g.Preds(gn) {
			if _, c := strategy.CheckEdge(g, pred, gn, assign[pred.ID], p, w, true); !c {
				ok = false
				break
			}
		}
		if ok {
			continue
		}
		for _, alt := range ir.PatternsFor(gn, w) {
			good := true
			for _, pred := range g.Preds(gn) {
				if _, c := strategy.CheckEdge(g, pred, gn, assign[pred.ID], alt, w, true); !c {
					good = false
					break
				}
			}
			if good {
				assign[gn.ID] = alt
				break
			}
		}
	}

	s, err := strategy.New(g, assign, w, true, model)
	if err != nil {
		return nil, stats, fmt.Errorf("alpa: stitched plan invalid: %w", err)
	}
	stats.Elapsed = time.Since(start)
	return s, stats, nil
}
