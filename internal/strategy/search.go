package strategy

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/parallel"
)

// SearchStats records where search time went and how much of the space
// was explored — the quantities behind the paper's Figures 1 and 6 and the
// "Alpa examines 16 candidates in 197 minutes, TAPAS 729 in 6" comparison.
type SearchStats struct {
	EnumTime     time.Duration
	AssembleTime time.Duration
	Classes      int
	Examined     int
	Pruned       int
	TimedOut     bool
	Truncated    bool
	Canceled     bool
}

// merge folds one class's enumeration effort into the search totals.
func (s *SearchStats) merge(es EnumStats) {
	s.Examined += es.Examined
	s.Pruned += es.Pruned
	s.TimedOut = s.TimedOut || es.TimedOut
	s.Truncated = s.Truncated || es.Truncated
	s.Canceled = s.Canceled || es.Canceled
}

// SearchFolded runs TAPAS strategy exploration over the folded search
// space: one enumeration per unique subgraph class, then greedy assembly
// of per-class winners into a valid global plan. Per-class enumerations
// run concurrently on opt.Workers goroutines (0 = GOMAXPROCS); the
// selected strategy is bit-identical for every worker count (absent a
// TimeBudget, whose deadline cuts are timing-dependent).
//
// Cancelling ctx aborts enumeration, assembly and repair at the next
// check point and returns ctx's error; opt.Progress (if set) observes
// per-class completion as the enumeration fan-out drains.
func SearchFolded(ctx context.Context, g *ir.GNGraph, classes []*mining.Class, model *cost.Model, opt EnumOptions, memLimit int64) (*Strategy, *SearchStats, error) {
	stats := &SearchStats{Classes: len(classes)}

	// Processing order: classes covering the most nodes first (the
	// repeated layers), so the dominant blocks fix the global layout and
	// the small boundary classes (embeddings, heads, glue) adapt to them;
	// ties break by first node ID for determinism.
	ordered := append([]*mining.Class{}, classes...)
	coverage := func(c *mining.Class) int { return len(c.Instances) * c.Size() }
	sort.Slice(ordered, func(i, j int) bool {
		ci, cj := coverage(ordered[i]), coverage(ordered[j])
		if ci != cj {
			return ci > cj
		}
		return ordered[i].Instances[0][0].ID < ordered[j].Instances[0][0].ID
	})

	// Per-class candidate lists. Classes fan out across the worker pool
	// (the hot path of the paper's headline search-time claim). Each
	// class's enumeration may additionally split its own decision tree;
	// its share of the pool halves with its coverage rank — the dominant
	// class gets the whole pool for its deep tree, the runner-up half,
	// and the tail runs serially — so the combined goroutine count stays
	// within ~2× Workers instead of Workers². (Single-node tail classes
	// never split regardless: their trees are one level deep.) The
	// shares are fixed by the deterministic class order, not by racing
	// on live pool state, and only move wall-clock: candidates are
	// collected positionally and the effort counters merged in class
	// order, so the assembly below sees exactly the serial result
	// regardless of Workers.
	t0 := time.Now()
	type classEnum struct {
		cands []*Candidate
		es    EnumStats
	}
	// Progress accounting: a mutex both orders the (done, examined)
	// snapshots and serializes the user callback, so observers see a
	// monotonic stream without locking of their own.
	var (
		progMu       sync.Mutex
		progDone     int
		progExamined int
	)
	reportClass := func(es EnumStats) {
		if opt.Progress == nil {
			return
		}
		progMu.Lock()
		progDone++
		progExamined += es.Examined
		opt.Progress(progDone, len(ordered), progExamined)
		progMu.Unlock()
	}
	workers := parallel.Workers(opt.Workers)
	enums, err := parallel.Map(ctx, workers, ordered,
		func(cctx context.Context, i int, c *mining.Class) (classEnum, error) {
			copt := opt
			copt.Workers = 1
			if i < 30 {
				copt.Workers = max(1, workers>>i)
			}
			cs, es := EnumerateInstance(cctx, g, c.Representative(), model, copt)
			if cctx.Err() != nil {
				// Aborted mid-enumeration: either the parent ctx was
				// cancelled (the caller's ctx check below reports it) or a
				// sibling class already failed (Map keeps that genuine
				// error). Returning nil here keeps the abort from
				// masquerading as this class's own failure.
				return classEnum{es: es}, nil
			}
			reportClass(es)
			if len(cs) == 0 {
				return classEnum{es: es}, fmt.Errorf("strategy: no valid candidate for class %d (size %d)", i, c.Size())
			}
			return classEnum{cs, es}, nil
		})
	cands := make([][]*Candidate, len(ordered))
	for i, e := range enums {
		stats.merge(e.es)
		cands[i] = e.cands
	}
	stats.EnumTime = time.Since(t0)
	if cerr := ctx.Err(); cerr != nil {
		stats.Canceled = true
		return nil, stats, cerr
	}
	if err != nil {
		return nil, stats, err
	}

	// Greedy assembly (step ⑤ + the static analysis): walk classes in
	// topological order, apply each candidate to every instance, score
	// internal cost × instance count plus boundary resharding against the
	// already-assigned neighborhood, and respect the device memory budget
	// when possible. Candidate scoring fans across the same pool as
	// enumeration and merges its results in serial order, so the plan
	// stays bit-identical at every worker count.
	t1 := time.Now()
	asm := newAssembler(g, ordered, model, opt, workers)
	assign, menus, chosen, err := asm.assemble(ctx, ordered, cands, memLimit)
	if err != nil {
		stats.AssembleTime = time.Since(t1)
		stats.Canceled = true
		return nil, stats, err
	}
	if memLimit > 0 {
		if err := asm.repair(ctx, ordered, assign, menus, chosen, memLimit); err != nil {
			stats.AssembleTime = time.Since(t1)
			stats.Canceled = true
			return nil, stats, err
		}
	}
	stats.AssembleTime = time.Since(t1)

	s, err := New(g, assign, opt.W, opt.AllowReshard, model)
	return s, stats, err
}

// scored is one feasible assembly choice for a class: a candidate, its
// total cost (internal × instance count + boundary resharding), its
// memory footprint, and the concrete pattern of every instance member,
// positionally: c.Instances flattened in order, member k of instance i
// at i·c.Size()+k (see assembler.slotOf).
type scored struct {
	cand  *Candidate
	total float64
	mem   int64
	patts []*ir.Pattern
}

// assembler carries the shared read-only state of greedy assembly and
// repair. Scoring workers only read it and the frozen assignment
// snapshot they are handed; all mutation happens between fan-outs on
// the caller's goroutine. Assignments are indexed by GraphNode.ID, nil
// for a node whose class is not placed yet.
type assembler struct {
	g       *ir.GNGraph
	model   *cost.Model
	opt     EnumOptions
	workers int
	// menuOf is the per-node pattern menu by GraphNode.ID, computed with
	// one ir.PatternsFor call per node up front. Scoring probes menus for
	// every candidate × instance member; taking the memo cell's mutex
	// from every worker would serialize the fan-out right back. The
	// slices and the *Pattern values they hold are shared read-only.
	menuOf [][]*ir.Pattern
	// classOf and slotOf map a GraphNode.ID to the index of its class
	// (the classes partition the nodes; -1 for a node in none) and to
	// its position in that class's scored.patts.
	classOf, slotOf []int32
}

func newAssembler(g *ir.GNGraph, classes []*mining.Class, model *cost.Model, opt EnumOptions, workers int) *assembler {
	a := &assembler{g: g, model: model, opt: opt, workers: workers,
		menuOf:  make([][]*ir.Pattern, len(g.Nodes)),
		classOf: make([]int32, len(g.Nodes)),
		slotOf:  make([]int32, len(g.Nodes)),
	}
	for _, gn := range g.Nodes {
		a.menuOf[gn.ID] = ir.PatternsFor(gn, opt.W)
		a.classOf[gn.ID] = -1
	}
	for ci, c := range classes {
		k := int32(0)
		for _, inst := range c.Instances {
			for _, gn := range inst {
				a.classOf[gn.ID], a.slotOf[gn.ID] = int32(ci), k
				k++
			}
		}
	}
	return a
}

// inClass reports whether gn is a member of class c.
func (a *assembler) inClass(c *mining.Class, gn *ir.GraphNode) bool {
	return a.classOf[gn.ID] == a.classOf[c.Instances[0][0].ID]
}

// place writes class c's patterns into assign.
func place(c *mining.Class, patts []*ir.Pattern, assign []*ir.Pattern) {
	k := 0
	for _, inst := range c.Instances {
		for _, gn := range inst {
			assign[gn.ID] = patts[k]
			k++
		}
	}
}

// scoreCandidate maps cand onto every instance of c and prices it against
// the frozen assignment. It returns ok=false when the candidate's pattern
// set does not exist on some instance or a boundary edge is incompatible.
func (a *assembler) scoreCandidate(c *mining.Class, cand *Candidate, assign []*ir.Pattern) (scored, bool) {
	patts := a.applyCandidate(c, cand)
	if patts == nil {
		return scored{}, false
	}
	// Boundary check against already-fixed classes AND between
	// instances of this class (consecutive repeats of a layer
	// feed each other, so the candidate's entry layout must also
	// accept its own exit layout). The float sum runs in instance
	// order, so a total is the same on every run.
	boundary := 0.0
	var buf [1]comm.Event // an edge needs at most one event
	edge := func(from, to *ir.GraphNode, pf, pt *ir.Pattern) bool {
		bytes, primary := edgeTensor(a.g, from, to)
		ev, ok := appendEdge(buf[:0], pf.Out, needFor(pt, primary), bytes, a.opt.W, a.opt.AllowReshard)
		boundary += a.model.EventsCost(ev).Total()
		return ok
	}
	for _, inst := range c.Instances {
		for _, gn := range inst {
			p := patts[a.slotOf[gn.ID]]
			for _, pred := range a.g.Preds(gn) {
				pf := assign[pred.ID]
				if pf == nil && a.inClass(c, pred) {
					pf = patts[a.slotOf[pred.ID]]
				}
				if pf != nil && !edge(pred, gn, pf, p) {
					return scored{}, false
				}
			}
			for _, succ := range a.g.Succs(gn) {
				// Same-class successors are covered from their pred side.
				if pt := assign[succ.ID]; pt != nil && !edge(gn, succ, p, pt) {
					return scored{}, false
				}
			}
		}
	}
	return scored{
		cand:  cand,
		total: cand.Cost.Total()*float64(len(c.Instances)) + boundary,
		mem:   cand.MemBytes * int64(len(c.Instances)),
		patts: patts,
	}, true
}

// assemble runs the greedy walk. Within each class every candidate
// scores independently against the assignment frozen from the previous
// classes, so they fan across the pool; results come back positionally
// and feasible is filtered in candidate order, so sort.SliceStable sees
// exactly the serial sequence.
func (a *assembler) assemble(ctx context.Context, ordered []*mining.Class, cands [][]*Candidate, memLimit int64) ([]*ir.Pattern, [][]scored, []int, error) {
	assign := make([]*ir.Pattern, len(a.g.Nodes))
	var memUsed int64

	// Remember the per-class menus and choices for the repair pass.
	menus := make([][]scored, len(ordered))
	chosen := make([]int, len(ordered))

	type scoreResult struct {
		s  scored
		ok bool
	}
	for ci, c := range ordered {
		results, err := parallel.Map(ctx, a.workers, cands[ci],
			func(_ context.Context, _ int, cand *Candidate) (scoreResult, error) {
				s, ok := a.scoreCandidate(c, cand, assign)
				return scoreResult{s, ok}, nil
			})
		if err != nil {
			return nil, nil, nil, err
		}
		var feasible []scored
		for _, r := range results {
			if r.ok {
				feasible = append(feasible, r.s)
			}
		}
		if len(feasible) == 0 {
			// Last resort: replicate the whole class. A replicated node
			// accepts any producer layout (all-gather) and feeds any
			// consumer layout (local slice), so this always validates.
			patts := make([]*ir.Pattern, 0, len(c.Instances)*c.Size())
			var mem int64
			for _, inst := range c.Instances {
				for _, gn := range inst {
					p := a.menuOf[gn.ID][0] // replicate is first
					patts = append(patts, p)
					mem += 4*p.WeightBytesPerDev + p.OutBytesPerDev
				}
			}
			feasible = append(feasible, scored{total: 0, mem: mem, patts: patts})
		}
		sort.SliceStable(feasible, func(a, b int) bool { return feasible[a].total < feasible[b].total })

		pickIdx := 0
		if memLimit > 0 {
			found := false
			for i, f := range feasible {
				if memUsed+f.mem <= memLimit {
					pickIdx = i
					found = true
					break
				}
			}
			if !found {
				// Nothing fits: take the lightest for now; the repair
				// pass below hunts for further savings.
				for i, f := range feasible {
					if f.mem < feasible[pickIdx].mem {
						pickIdx = i
					}
				}
			}
		}
		pick := feasible[pickIdx]
		memUsed += pick.mem
		place(c, pick.patts, assign)
		menus[ci] = feasible
		chosen[ci] = pickIdx
	}
	return assign, menus, chosen, nil
}

// repair runs the memory-repair loop: the greedy walk is first-fit, so
// the aggregate plan may still exceed device memory (the per-class
// estimates also over-count shared weights). While the true footprint
// exceeds the budget, swap the class offering the best memory saving to
// a lighter, boundary-compatible candidate. Each iteration scans the
// classes in ascending order and their alternatives in menu order, and
// takes a swap only when it saves strictly more than the best so far.
func (a *assembler) repair(ctx context.Context, ordered []*mining.Class, assign []*ir.Pattern, menus [][]scored, chosen []int, memLimit int64) error {
	for iter := 0; iter < 4*len(ordered); iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if MemoryPerDevice(a.g, assign) <= memLimit {
			break
		}
		bestClass, bestAlt := -1, -1
		bestSave := int64(0)
		for ci, c := range ordered {
			cur := menus[ci][chosen[ci]]
			for ai, alt := range menus[ci] {
				// Cheap test first: a save that doesn't beat the best so far
				// (the current choice saves nothing) can't win, so skip its
				// boundary sweep.
				if save := cur.mem - alt.mem; save > bestSave && a.swapCompatible(c, assign, alt.patts) {
					bestSave, bestClass, bestAlt = save, ci, ai
				}
			}
		}
		if bestClass < 0 {
			break // no lighter compatible alternative anywhere
		}
		chosen[bestClass] = bestAlt
		place(ordered[bestClass], menus[bestClass][bestAlt].patts, assign)
	}
	return nil
}

// swapCompatible reports whether replacing class c's patterns with patts
// keeps every boundary edge valid against the rest of the assignment.
func (a *assembler) swapCompatible(c *mining.Class, assign []*ir.Pattern, patts []*ir.Pattern) bool {
	for _, inst := range c.Instances {
		for _, gn := range inst {
			p := patts[a.slotOf[gn.ID]]
			for _, pred := range a.g.Preds(gn) {
				pf := assign[pred.ID]
				if a.inClass(c, pred) {
					pf = patts[a.slotOf[pred.ID]]
				}
				if pf == nil {
					continue
				}
				if _, ok := checkEdge(a.g, pred, gn, pf, p, a.opt.W, a.opt.AllowReshard); !ok {
					return false
				}
			}
			for _, succ := range a.g.Succs(gn) {
				if a.inClass(c, succ) {
					continue // covered from the successor's pred side
				}
				pt := assign[succ.ID]
				if pt == nil {
					continue
				}
				if _, ok := checkEdge(a.g, gn, succ, p, pt, a.opt.W, a.opt.AllowReshard); !ok {
					return false
				}
			}
		}
	}
	return true
}

// applyCandidate maps a representative-instance candidate onto every
// instance of the class positionally: member i of each instance receives
// the pattern with the same name from its own menu (looked up in the
// precomputed menuOf, never through the ir.PatternsFor memo mutex).
// Instances share a canonical structural hash, so the menus are
// identical. It returns the patterns in scored.patts order, or nil when
// some member's menu lacks the wanted pattern.
func (a *assembler) applyCandidate(c *mining.Class, cand *Candidate) []*ir.Pattern {
	patts := make([]*ir.Pattern, 0, len(c.Instances)*c.Size())
	for _, inst := range c.Instances {
		for i, gn := range inst {
			want := cand.Patterns[i].Name
			var found *ir.Pattern
			for _, p := range a.menuOf[gn.ID] {
				if p.Name == want {
					found = p
					break
				}
			}
			if found == nil {
				return nil
			}
			patts = append(patts, found)
		}
	}
	return patts
}

// SearchExhaustive enumerates the unfolded graph as a single instance —
// the TAPAS-ES configuration of Figure 8. The time budget mirrors the
// paper's 120-minute cap on exhaustive search. The single decision tree
// is split into deterministic prefix tasks across opt.Workers goroutines.
// Cancelling ctx aborts the enumeration and returns ctx's error.
func SearchExhaustive(ctx context.Context, g *ir.GNGraph, model *cost.Model, opt EnumOptions, memLimit int64) (*Strategy, *SearchStats, error) {
	stats := &SearchStats{Classes: 1}
	t0 := time.Now()
	cs, es := EnumerateInstance(ctx, g, g.TopoOrder(), model, opt)
	stats.EnumTime = time.Since(t0)
	stats.Examined, stats.Pruned = es.Examined, es.Pruned
	stats.TimedOut, stats.Truncated = es.TimedOut, es.Truncated
	stats.Canceled = es.Canceled
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if opt.Progress != nil {
		opt.Progress(1, 1, es.Examined)
	}
	if len(cs) == 0 {
		return nil, stats, fmt.Errorf("strategy: exhaustive search found no valid plan")
	}
	// Assembly: spread the cheapest memory-feasible candidate over g.
	t1 := time.Now()
	pick := cs[0]
	if memLimit > 0 {
		for _, c := range cs {
			if c.MemBytes <= memLimit {
				pick = c
				break
			}
		}
	}
	stats.AssembleTime = time.Since(t1)
	// The instance is g.TopoOrder(), so the candidate's patterns are
	// already indexed by GraphNode.ID.
	s, err := New(g, pick.Patterns, opt.W, opt.AllowReshard, model)
	return s, stats, err
}
