package strategy

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/parallel"
)

// Candidate is one validated pattern assignment for a subgraph instance.
// The enumeration's walk never builds one: it records each complete
// assignment as one menu index per node — the encoding TaskSpec and
// TaskResult carry on the wire — and only the assignments ranking keeps
// are materialised as Candidates.
type Candidate struct {
	Patterns []*ir.Pattern // parallel to the instance's node order
	Reshard  []comm.Event  // intra-instance boundary collectives
	Cost     cost.Breakdown
	MemBytes int64 // per-device footprint contribution
}

// EnumOptions bound the decision-tree enumeration.
type EnumOptions struct {
	// W is the tensor-parallel group size.
	W int
	// MaxCandidates caps the number of complete valid assignments
	// collected per subgraph.
	MaxCandidates int
	// TopK is how many candidates survive ranking.
	TopK int
	// AllowReshard permits all-gather recovery at split→replicated
	// boundaries.
	AllowReshard bool
	// DisableSeeds drops the propagation-seeded candidates, leaving only
	// the budgeted tree search (used by the ablation benchmarks).
	DisableSeeds bool
	// TimeBudget aborts enumeration when exceeded (zero = unlimited); the
	// paper applies a 120-minute limit to exhaustive search.
	TimeBudget time.Duration
	// Workers bounds the goroutines used by the parallel search paths
	// (SearchFolded class fan-out and the intra-instance decision-tree
	// split). Zero selects GOMAXPROCS; 1 forces the serial path. The
	// selected strategy is identical for every worker count — parallel
	// enumeration replays the serial budget arithmetic exactly and merges
	// results in deterministic order. The one exception is a non-zero
	// TimeBudget: which subtrees the deadline cuts off depends on timing,
	// under any worker count.
	Workers int
	// Progress, when non-nil, receives live SearchFolded progress after
	// each per-class enumeration finishes: classes completed so far, the
	// class total, and the cumulative number of complete strategies
	// examined. Calls are serialized (never concurrent with each other)
	// but may arrive from any worker goroutine; the callback must return
	// quickly and must not call back into the search. Progress never
	// affects the selected strategy.
	Progress func(classesDone, classesTotal, examined int)
	// Runner, when non-nil, receives the enumeration's prefix tasks as a
	// wire-portable TaskBatch instead of the in-process pool alone — the
	// seam the distributed dispatch layer plugs into. Runners never
	// affect the selected strategy: the bit-identical contract requires
	// their results to equal what TaskBatch.Local would produce, and any
	// missing or malformed result is recomputed locally.
	Runner TaskRunner
}

// DefaultEnumOptions returns the budgets used by the TAPAS search.
func DefaultEnumOptions(w int) EnumOptions {
	return EnumOptions{W: w, MaxCandidates: 4096, TopK: 16, AllowReshard: true}
}

// EnumStats reports search effort — the paper quotes "729 strategies
// examined" for T5-large.
type EnumStats struct {
	Examined int // complete assignments validated
	// Pruned counts prefixes early-stopped by the symbolic shape check:
	// every visit of a tree node adds the menu entries its check rejects,
	// whether the check ran or its result was memoized.
	Pruned    int
	TimedOut  bool // enumeration hit the time budget
	Truncated bool // enumeration hit MaxCandidates
	Canceled  bool // enumeration aborted by context cancellation
}

// merge folds another worker's effort counters into s.
func (s *EnumStats) merge(o EnumStats) {
	s.Examined += o.Examined
	s.Pruned += o.Pruned
	s.TimedOut = s.TimedOut || o.TimedOut
	s.Truncated = s.Truncated || o.Truncated
	s.Canceled = s.Canceled || o.Canceled
}

// enumShared is the immutable context of one EnumerateInstance call,
// shared read-only by every enumeration worker. Everything the tree
// consults per branch is addressed by instance position.
type enumShared struct {
	ctx      context.Context
	g        *ir.GNGraph
	instance []*ir.GraphNode
	pos      []int32    // instance position by GraphNode.ID, -1 outside
	in       [][]inEdge // per position: the edges checked when it is assigned
	menus    [][]*ir.Pattern
	prices   [][]price // per position and menu entry: PatternCost and nodeMem
	leaves   int       // complete assignments the menus allow, capped at MaxCandidates
	// boundary lists the positions whose layouts neighbouring classes see
	// (see diverseTopK), each with its first slot in a table of one slot
	// per boundary menu entry; boundSlots is that table's size.
	boundary   []boundPos
	boundSlots int
	// memoOff is each position's first slot in a walk's branch memo (see
	// enumState.memoAt), or -1 where the producers' choices span more than
	// maxMemoSlots keys; slots is the memo's size. arena is the menus'
	// total length: room for one check of every position.
	memoOff []int32
	slots   int
	arena   int
	model   *cost.Model
	opt     EnumOptions
	start   time.Time
}

// inEdge is one intra-instance edge into a position: the producer's
// position j and the tensor it carries (see edgeTensor), resolved once
// per enumeration instead of at every tree node. stride is the weight of
// the producer's menu index in the position's memo key: the product of
// the menu sizes of the edges before it.
type inEdge struct {
	j       int32
	primary bool
	stride  int32
	bytes   int64
}

// boundPos is one boundary position and its first slot in a table over
// the boundary positions' menu entries.
type boundPos struct{ i, off int }

// maxMemoSlots bounds the keys one position's branch memo may span. The
// registered models need at most 25 (two producers with five-entry
// menus); a position past the bound is checked afresh at every visit.
const maxMemoSlots = 1 << 12

// price is what a pattern adds to an assignment — its PatternCost and
// its nodeMem — or, summed over positions, what a whole assignment costs.
type price struct {
	cost cost.Breakdown
	mem  int64
}

// records is the enumeration's output before ranking: one price per
// recorded assignment, in the order found, with assignment k's menu
// indices at idx[k*n : (k+1)*n]. Nothing in it is a pointer, so the
// assignments a class records cost the garbage collector nothing; only
// the ones ranking keeps become Candidates. skipped counts the complete
// assignments a filtered walk examined but did not record (see
// enumState.keepable).
type records struct {
	n       int
	idx     []int32
	prices  []price
	skipped int
}

// newRecords returns an empty set with room for capacity assignments.
func (sh *enumShared) newRecords(capacity int) records {
	n := len(sh.instance)
	return records{n: n, idx: make([]int32, 0, capacity*n), prices: make([]price, 0, capacity)}
}

func (r *records) len() int { return len(r.prices) }

// at returns the menu indices of assignment k.
func (r *records) at(k int) []int32 { return r.idx[k*r.n : (k+1)*r.n] }

func (r *records) add(mi []int32, p price) {
	r.idx = append(r.idx, mi...)
	r.prices = append(r.prices, p)
}

// merge appends o's assignments after r's.
func (r *records) merge(o records) {
	r.idx = append(r.idx, o.idx...)
	r.prices = append(r.prices, o.prices...)
	r.skipped += o.skipped
}

// truncate drops every assignment from the k-th on.
func (r *records) truncate(k int) {
	r.idx, r.prices = r.idx[:k*r.n], r.prices[:k]
}

// partial is what a prefix of an assignment adds up to: the sum of its
// branches' totals (PatternCost plus events, see branch) and of their
// nodeMem. The memory is exact; the total may differ from the priced
// assignment's in its last bits, since it adds the same non-negative
// terms in another order.
type partial struct {
	total float64
	mem   int64
}

func (a partial) add(br branch) partial { return partial{a.total + br.total, a.mem + br.mem} }

// enumState is the mutable state of one depth-first enumeration walk. Each
// parallel worker owns a private enumState; merging concatenates the out
// records in deterministic task order and sums the stats. The walk holds
// what the wire holds: one menu index per decided position (plus the
// running sums). A position's pattern is menus[i][mi[i]] and its events
// come from the branch memo, so a tree node writes no pointer.
//
// The state memoizes the shape check: a position's surviving branches
// depend only on the menu indices its intra-instance producers hold, and
// a walk revisits each such combination many times (t5-1.4B at W 8: about
// 49,000 visits of 155 distinct class, position and producer-choice
// inputs). A memo entry is written
// once and never overwritten, so the branches and events it hands out
// stay valid for the state's lifetime.
type enumState struct {
	*enumShared
	stats EnumStats
	out   records
	mi    []int32      // mi[i]: the menu index chosen at position i
	acc   []partial    // acc[i]: the running sums of positions before i
	cat   []comm.Event // scratch: the assignment's events in position order
	steps uint         // dfs call counter throttling the context poll
	// The leaf filter, on when topK > 0 (see keepable): the topK cheapest
	// recorded totals in ascending order, the lightest recorded memory,
	// and per boundary slot (see boundPos) the cheapest recorded total
	// choosing that menu entry there.
	topK  int
	kth   []float64
	light int64
	best  []float64
	// The branch memo, by slot. Entries' branches and events are windows
	// of the two append-only arenas.
	memo    []memoEntry
	brArena []branch
	evArena []comm.Event
}

// memoEntry is one position's shape check under one combination of its
// producers' choices: the surviving branches and how many menu entries
// the check rejected. done marks a filled slot.
type memoEntry struct {
	brs    []branch
	pruned int32
	done   bool
}

// newEnumState returns a walk state whose output has room for capacity
// assignments. It records every complete assignment it reaches; see
// startWalk.
func newEnumState(sh *enumShared, capacity int) *enumState {
	n := len(sh.instance)
	return &enumState{
		enumShared: sh,
		out:        sh.newRecords(capacity),
		mi:         make([]int32, n),
		acc:        make([]partial, n+1),
		memo:       make([]memoEntry, sh.slots),
		brArena:    make([]branch, 0, sh.arena),
		evArena:    make([]comm.Event, 0, len(sh.instance)),
	}
}

// filterRoom is the record capacity a filtered walk starts with: the
// leaf filter records a few percent of the leaves of a wide tree, so the
// buffer grows on the rare walk that outgrows this instead of reserving
// room for every leaf.
const filterRoom = 256

// startWalk sizes s's output for a walk of at most budget leaves and,
// when filter is set and ranking cuts to TopK, turns on the leaf filter;
// otherwise the walk records every leaf.
func (s *enumState) startWalk(budget int, filter bool) {
	if !filter || s.opt.TopK <= 0 {
		s.out = s.newRecords(budget)
		return
	}
	s.topK = s.opt.TopK
	buf := make([]float64, s.topK+s.boundSlots)
	s.kth, s.best = buf[:0:s.topK], buf[s.topK:]
	for k := range s.best {
		s.best[k] = math.Inf(1)
	}
	s.light = math.MaxInt64
	s.out = s.newRecords(min(budget, filterRoom))
}

// take assigns branch br at position i.
func (s *enumState) take(i int, br branch) {
	s.mi[i] = br.mi
	s.acc[i+1] = s.acc[i].add(br)
}

// newEnumShared builds the per-node pattern menus and the shared
// read-only context of one enumeration. Menus are ordered cheapest-first
// by a stable sort over deterministic float64 totals, so a coordinator
// and a remote executor given the same graph and options build
// byte-identical menus — which is what makes menu indices a sound wire
// encoding for patterns and candidates.
func newEnumShared(ctx context.Context, g *ir.GNGraph, instance []*ir.GraphNode, model *cost.Model, opt EnumOptions) *enumShared {
	pos := make([]int32, len(g.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, gn := range instance {
		pos[gn.ID] = int32(i)
	}
	// Every per-position table is a window of one flat array, sized by a
	// first pass over the instance. Positions are assigned in order, so
	// exactly the predecessors at earlier positions are assigned when
	// position i is decided; the others are boundary edges (resolved at
	// assembly) or are never checked inside the instance.
	nEdges, nEntries, widest := 0, 0, 0
	for i, gn := range instance {
		for _, pred := range g.Preds(gn) {
			if j := pos[pred.ID]; j >= 0 && int(j) < i {
				nEdges++
			}
		}
		m := len(ir.PatternsFor(gn, opt.W))
		nEntries, widest = nEntries+m, max(widest, m)
	}
	in := make([][]inEdge, len(instance))
	edges := make([]inEdge, 0, nEdges)
	owns := make([]bool, len(instance))
	seen := map[*graph.Tensor]bool{}
	for i, gn := range instance {
		start := len(edges)
		for _, pred := range g.Preds(gn) {
			if j := pos[pred.ID]; j >= 0 && int(j) < i {
				bytes, primary := edgeTensor(g, pred, gn)
				edges = append(edges, inEdge{j: j, primary: primary, bytes: bytes})
			}
		}
		in[i] = edges[start:len(edges):len(edges)]
		owns[i] = ownsWeights(gn, seen)
	}

	// Pattern menus, cheapest-first so depth-first search reaches good
	// complete strategies before any budget triggers. Each entry is
	// priced once here; the walk only adds up table values.
	menus := make([][]*ir.Pattern, len(instance))
	prices := make([][]price, len(instance))
	menuArr, priceArr := make([]*ir.Pattern, nEntries), make([]price, nEntries)
	leaves := 1
	type entry struct {
		p  *ir.Pattern
		pr price
	}
	es := make([]entry, 0, widest)
	for i, gn := range instance {
		ps := ir.PatternsFor(gn, opt.W)
		es = es[:0]
		for _, p := range ps {
			es = append(es, entry{p, price{model.PatternCost(p), nodeMem(p, owns[i])}})
		}
		slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.pr.cost.Total(), b.pr.cost.Total()) })
		// The memoized menu is shared: sort a private copy.
		menus[i], menuArr = menuArr[:len(ps):len(ps)], menuArr[len(ps):]
		prices[i], priceArr = priceArr[:len(ps):len(ps)], priceArr[len(ps):]
		for j, e := range es {
			menus[i][j], prices[i][j] = e.p, e.pr
		}
		leaves = min(leaves*len(ps), max(opt.MaxCandidates, 0))
	}

	// Boundary positions: entries have an external (or no) predecessor,
	// exits an external (or no) successor.
	boundary, boundSlots := make([]boundPos, 0, len(instance)), 0
	for i, gn := range instance {
		external := len(g.Preds(gn)) == 0 || len(g.Succs(gn)) == 0
		for _, p := range g.Preds(gn) {
			external = external || pos[p.ID] < 0
		}
		for _, s := range g.Succs(gn) {
			external = external || pos[s.ID] < 0
		}
		if external {
			boundary = append(boundary, boundPos{i, boundSlots})
			boundSlots += len(menus[i])
		}
	}

	// The memo key of position i is its producers' menu indices as a mixed
	// radix over their menu sizes, offset into one table for all positions.
	memoOff, slots, arena := make([]int32, len(instance)), 0, 0
	for i := range instance {
		arena += len(menus[i])
		size := 1
		for k, e := range in[i] {
			in[i][k].stride = int32(size)
			if size *= len(menus[e.j]); size > maxMemoSlots {
				break
			}
		}
		if size > maxMemoSlots {
			memoOff[i] = -1
			continue
		}
		memoOff[i], slots = int32(slots), slots+size
	}

	return &enumShared{
		ctx:        ctx,
		g:          g,
		instance:   instance,
		pos:        pos,
		in:         in,
		menus:      menus,
		prices:     prices,
		leaves:     leaves,
		boundary:   boundary,
		boundSlots: boundSlots,
		memoOff:    memoOff,
		slots:      slots,
		arena:      arena,
		model:      model,
		opt:        opt,
		start:      time.Now(),
	}
}

// branch is one compatible pattern choice at a tree depth. mi is the
// pattern's index in the node's menu — the wire encoding of the choice,
// unambiguous on any machine because menus are built and ordered
// deterministically (see newEnumShared). mem and total feed the running
// sums the leaf filter reads (see partial).
type branch struct {
	p     *ir.Pattern
	evs   []comm.Event
	mi    int32
	mem   int64   // the entry's nodeMem
	total float64 // the entry's PatternCost total plus its events' cost
}

// share is the candidate budget of branch idx of a node's n compatible
// branches: equal shares with the remainder spread over the leading
// (cheapest) branches, and the first branch guaranteed at least one slot
// so enumeration cannot come back empty while valid strategies exist.
// The zero shares are a suffix, so callers stop at the first; a budget
// below n leaves some (the enumeration is truncated). Both the serial dfs
// and the parallel splitTasks call this — the bit-identical-results
// contract depends on there being exactly one copy of this arithmetic.
func share(budget, n, idx int) int {
	s := budget / n
	if idx < budget%n || idx == 0 && s == 0 {
		s++
	}
	return s
}

// branchesAt applies the symbolic shape check of node i against the
// already-assigned intra-instance predecessors and returns the surviving
// patterns (early stopping, Figure 4), counting prunes. The check comes
// from the memo when the producers' choices were seen before; the prunes
// are counted either way, so the stats equal an unmemoized walk's.
func (s *enumState) branchesAt(i int) []branch {
	e := s.memoAt(i)
	s.stats.Pruned += int(e.pruned)
	return e.brs
}

// memoAt returns the shape check of node i under the menu indices its
// producers hold in s.mi, running it on the first visit of that
// combination. The key is exact: every producer's index is a digit of it.
func (s *enumState) memoAt(i int) memoEntry {
	slot := s.memoOff[i]
	if slot >= 0 {
		for _, e := range s.in[i] {
			slot += s.mi[e.j] * e.stride
		}
		if e := s.memo[slot]; e.done {
			return e
		}
	}
	e := memoEntry{done: true}
	first := len(s.brArena)
	for mi, p := range s.menus[i] {
		start := len(s.evArena)
		var ok bool
		if s.evArena, ok = s.eventsFor(s.evArena, i, p); !ok {
			s.evArena = s.evArena[:start]
			e.pruned++
			continue
		}
		end := len(s.evArena)
		evs, pr := s.evArena[start:end:end], s.prices[i][mi]
		s.brArena = append(s.brArena, branch{p, evs, int32(mi), pr.mem, pr.cost.Total() + s.model.EventsCost(evs).Total()})
	}
	e.brs = s.brArena[first:len(s.brArena):len(s.brArena)]
	if slot >= 0 {
		s.memo[slot] = e
	}
	return e
}

// branchFor returns the branch of node i that chooses menu entry mi
// under the producers' choices in s.mi, or false when the shape check
// rejects it.
func (s *enumState) branchFor(i int, mi int32) (branch, bool) {
	for _, br := range s.memoAt(i).brs {
		if br.mi == mi {
			return br, true
		}
	}
	return branch{}, false
}

// eventsAt returns the events of the choice held at position i, from the
// memo.
func (s *enumState) eventsAt(i int) []comm.Event {
	br, _ := s.branchFor(i, s.mi[i])
	return br.evs
}

// eventsFor validates pattern p at position i against the menu choices
// its intra-instance producers hold in s.mi, appending the reshard events
// the edge checks require to dst. It is the one shape check: the memo
// runs it, and the walk, the seeds, a task's prefix replay, the candidate
// rebuild and the pricing of a recorded leaf all read their events from
// the memo — the bit-identical contract depends on the replayed events
// equaling the serial descent's exactly.
func (s *enumState) eventsFor(dst []comm.Event, i int, p *ir.Pattern) ([]comm.Event, bool) {
	for _, e := range s.in[i] {
		var ok bool
		dst, ok = appendEdge(dst, s.menus[e.j][s.mi[e.j]].Out, needFor(p, e.primary), e.bytes, s.opt.W, s.opt.AllowReshard)
		if !ok {
			return dst, false
		}
	}
	return dst, true
}

// complete records the full assignment currently held in s, unless the
// leaf filter shows ranking could not keep it.
func (s *enumState) complete() {
	s.stats.Examined++
	if s.topK > 0 && !s.keepable() {
		s.out.skipped++
		return
	}
	p := s.price()
	s.out.add(s.mi, p)
	if s.topK > 0 {
		s.hold(p)
	}
}

// keepable reports whether the assignment held in s could be kept by one
// of diverseTopK's rounds, given what this walk has recorded. It is false
// only when the records include topK strictly cheaper assignments (round
// 3's window), a strictly lighter one (round 2), and at every boundary
// position a strictly cheaper one choosing the same menu entry there
// (round 1's per-entry cheapest). Adding an assignment that is none of
// those changes no round's choice, so dropping it leaves the kept set,
// its order and the candidates as they were — across tasks too, since
// the records this walk compared against are all merged.
//
// The running total adds the same non-negative terms as price, in
// another order. Any float sum of m non-negative terms is within a
// relative (m-1)·2⁻⁵³ (to first order) of their exact sum, so the two
// totals differ by less than the 1e-9 margin unless an instance had
// millions of terms: a leaf whose running total·(1-1e-9) exceeds a
// recorded total truly costs more.
func (s *enumState) keepable() bool {
	a := s.acc[len(s.instance)]
	if len(s.kth) < s.topK || a.mem <= s.light {
		return true
	}
	t := a.total * (1 - 1e-9)
	if t <= s.kth[s.topK-1] {
		return true
	}
	for _, b := range s.boundary {
		if t <= s.best[b.off+int(s.mi[b.i])] {
			return true
		}
	}
	return false
}

// hold folds the just-recorded assignment held in s, which p prices,
// into the leaf filter.
func (s *enumState) hold(p price) {
	t := p.cost.Total()
	s.light = min(s.light, p.mem)
	for _, b := range s.boundary {
		if k := b.off + int(s.mi[b.i]); t < s.best[k] {
			s.best[k] = t
		}
	}
	// kth holds the topK cheapest totals in ascending order.
	if len(s.kth) == s.topK {
		if !(t < s.kth[s.topK-1]) {
			return
		}
		s.kth = s.kth[:s.topK-1]
	}
	at, _ := slices.BinarySearch(s.kth, t)
	s.kth = slices.Insert(s.kth, at, t)
}

// concat gathers the events of the full assignment held in s in position
// order, into the scratch s.cat.
func (s *enumState) concat() []comm.Event {
	s.cat = s.cat[:0]
	for i := range s.mi {
		s.cat = append(s.cat, s.eventsAt(i)...)
	}
	return s.cat
}

// price prices the full assignment held in s from the menu table: the
// memory is the positional sum of nodeMem, the cost StrategyCost's
// summation over the table's PatternCost values and the events
// concatenated in position order.
func (s *enumState) price() price {
	mi, mem := s.mi, int64(0)
	for i, m := range mi {
		mem += s.prices[i][m].mem
	}
	c := s.model.SumCost(len(mi), func(i int) cost.Breakdown { return s.prices[i][mi[i]].cost }, s.concat())
	return price{c, mem}
}

// newCandidate materialises the assignment held in s, which p prices: its
// patterns and its events concatenated in position order.
func (s *enumState) newCandidate(p price) *Candidate {
	cat := s.concat()
	c := &Candidate{Patterns: make([]*ir.Pattern, len(s.mi)), Reshard: make([]comm.Event, 0, len(cat)), Cost: p.cost, MemBytes: p.mem}
	for i, m := range s.mi {
		c.Patterns[i] = s.menus[i][m]
	}
	c.Reshard = append(c.Reshard, cat...)
	return c
}

// replayPrefix assigns the menu choices of prefix into st, validating
// each against the already-replayed predecessors exactly as the serial
// descent did when it made them. It serves the wire (a TaskSpec prefix, a
// TaskResult candidate) and the records alike. The check comes from the
// memo, whose prunes a replay does not count: the descent that made the
// choices counted them.
func replayPrefix[I int | int32](st *enumState, prefix []I) error {
	for i, v := range prefix {
		if v < 0 || int(v) >= len(st.menus[i]) {
			return fmt.Errorf("strategy: prefix index %d out of range for node %d (menu size %d)", v, i, len(st.menus[i]))
		}
		br, ok := st.branchFor(i, int32(v))
		if !ok {
			return fmt.Errorf("strategy: inconsistent task prefix at node %d", i)
		}
		st.take(i, br)
	}
	return nil
}

// dfs is the budgeted decision-tree search: every depth splits its
// candidate budget across the compatible patterns of the current node
// (cheapest branch first and largest share), so the collected candidates
// sample the whole tree instead of exhausting the budget inside the first
// subtree. Branches past the budget are skipped; the first branch always
// gets at least one slot so enumeration cannot come back empty while
// valid strategies exist.
func (s *enumState) dfs(i, budget int) {
	if budget <= 0 {
		return
	}
	// Poll the context every 256 tree steps: cheap enough for the hot
	// path, frequent enough that cancellation lands within microseconds.
	s.steps++
	if s.steps&0xff == 0 && s.ctx.Err() != nil {
		s.stats.Canceled = true
		return
	}
	if s.opt.TimeBudget > 0 && time.Since(s.start) > s.opt.TimeBudget {
		s.stats.TimedOut = true
		return
	}
	if i == len(s.instance) {
		s.complete()
		return
	}
	compat := s.branchesAt(i)
	n := len(compat)
	if n == 0 {
		return
	}
	if budget < n {
		s.stats.Truncated = true
	}
	for idx, br := range compat {
		b := share(budget, n, idx)
		if b == 0 {
			break
		}
		s.take(i, br)
		s.dfs(i+1, b)
	}
}

// splitTasks expands the root of the decision tree breadth-first until at
// least target leaf tasks exist (or the tree is exhausted), replaying the
// serial budget arithmetic at every expanded prefix. Tasks are listed in
// the serial depth-first visit order, so concatenating their outputs
// reproduces the serial result exactly. The prune/truncation accounting
// of expanded prefixes lands in the returned stats, exactly once per
// prefix, as in the serial walk.
func splitTasks(sh *enumShared, target int) ([]TaskSpec, EnumStats) {
	scratch := newEnumState(sh, 0)
	tasks := []TaskSpec{{Budget: sh.opt.MaxCandidates}}
	for len(tasks) < target {
		// Expand the widest remaining subtree: the expandable task with
		// the largest budget, lowest index on ties (deterministic).
		pick := -1
		for i, t := range tasks {
			if len(t.Prefix) < len(sh.instance) && (pick < 0 || t.Budget > tasks[pick].Budget) {
				pick = i
			}
		}
		if pick < 0 {
			break // every task is a complete assignment
		}
		t := tasks[pick]
		for d, mi := range t.Prefix {
			scratch.mi[d] = int32(mi)
		}
		compat := scratch.branchesAt(len(t.Prefix))
		n := len(compat)
		if n > 0 && t.Budget < n {
			scratch.stats.Truncated = true
		}
		var children []TaskSpec
		for idx, br := range compat {
			b := share(t.Budget, n, idx)
			if b == 0 {
				break
			}
			children = append(children, TaskSpec{Prefix: append(slices.Clip(t.Prefix), int(br.mi)), Budget: b})
		}
		tasks = slices.Replace(tasks, pick, pick+1, children...)
	}
	return tasks, scratch.stats
}

// EnumerateInstance runs the decision-tree search over one subgraph
// instance: nodes are assigned patterns in topological (ID) order; every
// partial assignment is validated against already-assigned intra-instance
// predecessors and abandoned at the first incompatibility ("we can early
// stop it without exploring this strategy to the fullest"). Complete
// assignments are scored with the cost model; the TopK cheapest survive.
//
// The walk records each complete assignment ranking could keep as one
// menu index per node — the encoding TaskSpec and TaskResult carry on the
// wire — priced from a per-menu-entry table; ranking works on those
// records, and only the candidates it keeps are ever materialised as
// *Candidate. Every budgeted leaf is still visited and counted.
//
// With opt.Workers != 1, or a Runner, the tree is split into
// deterministic prefix tasks (TaskSpecs), shipped to the runner or walked
// on a bounded worker pool; the returned candidates and stats are
// identical to the serial run for every worker count and runner, unless a
// TimeBudget is set (deadline cuts are inherently timing-dependent).
//
// Cancelling ctx aborts the walk promptly: the stats report Canceled and
// the (partial) candidate list must be discarded by the caller.
func EnumerateInstance(ctx context.Context, g *ir.GNGraph, instance []*ir.GraphNode, model *cost.Model, opt EnumOptions) ([]*Candidate, EnumStats) {
	return newEnumShared(ctx, g, instance, model, opt).enumerate(true)
}

// enumerate is EnumerateInstance on a built context. filter selects the
// leaf filter (see enumState.keepable) for the in-process walks; the
// result is the same either way.
func (sh *enumShared) enumerate(filter bool) ([]*Candidate, EnumStats) {
	ctx, opt := sh.ctx, sh.opt
	// st serves the serial walk, or the replay of a runner's results, and
	// then the seeds and ranking: one branch memo per enumeration.
	st := newEnumState(sh, 0)
	workers := parallel.Workers(opt.Workers)
	var (
		out   records
		stats EnumStats
	)
	if workers <= 1 && opt.Runner == nil || len(sh.instance) < 2 || opt.MaxCandidates <= 0 {
		// Trivial trees are cheaper to walk than to split or ship.
		st.startWalk(sh.leaves+seedCount, filter)
		st.dfs(0, opt.MaxCandidates)
		out, stats = st.out, st.stats
	} else {
		out, stats = st.split(workers, filter)
	}
	if ctx.Err() != nil {
		stats.Canceled = true
		return nil, stats
	}

	// Seeded candidates: coherent whole-instance assignments built by
	// layout propagation under a library of preference orders. The
	// budgeted tree search samples the neighborhood of the cheapest
	// plans; the seeds guarantee that the qualitatively different regimes
	// (batch-parallel, tensor-parallel, expert-parallel, memory-minimal)
	// are always represented, even deep in large instances where the
	// branch budget has collapsed to a single greedy path.
	if !opt.DisableSeeds {
		st.appendSeeds(&out)
	}
	return st.rank(out), stats
}

// rank selects the records ranking keeps (see ranked) and materialises
// them — and only them — as Candidates, replaying each on st.
func (st *enumState) rank(recs records) []*Candidate {
	kept := st.ranked(recs)
	out := make([]*Candidate, len(kept))
	for j, k := range kept {
		if err := replayPrefix(st, recs.at(int(k))); err != nil {
			panic(err) // the walk recorded an assignment its own checks reject
		}
		out[j] = st.newCandidate(recs.prices[k])
	}
	return out
}

// ranked returns the indices of the records ranking keeps, in output
// order. Rank order is cheapest-first with ties in record order — (total,
// index) is a strict total order, so the result never depends on a sort's
// stability. With TopK <= 0, or no more assignments than TopK, it is every
// record in rank order; otherwise diverseTopK selects without sorting the
// records at all. The count includes the assignments a filtered walk
// skipped: diverseTopK orders equal totals differently from the sort, so
// a filtered walk must take the path the unfiltered one would.
func (sh *enumShared) ranked(recs records) []int32 {
	tot := make([]float64, recs.len())
	for k, p := range recs.prices {
		tot[k] = p.cost.Total()
	}
	if topK := sh.opt.TopK; topK > 0 && len(tot)+recs.skipped > topK {
		return sh.diverseTopK(recs, tot)
	}
	order := make([]int32, len(tot))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, rankOrder(tot))
	return order
}

// rankOrder compares record indices by (total, index).
func rankOrder(tot []float64) func(a, b int32) int {
	return func(a, b int32) int { return cmp.Or(cmp.Compare(tot[a], tot[b]), cmp.Compare(a, b)) }
}

// inAxis and outAxis read the layouts diverseTopK diversifies over.
func inAxis(p *ir.Pattern) int  { return p.In.Axis }
func outAxis(p *ir.Pattern) int { return p.Out.Axis }

// seedPreferences is the exploration library: each row is tried as a
// propagation preference order. Names missing from a node's menu are
// skipped, so the rows are architecture-agnostic.
var seedPreferences = [][]string{
	// Pure batch parallelism.
	{"data-parallel", "pass-split0", "dp-local", "capacity-parallel"},
	// Megatron-style tensor parallelism.
	{"column-parallel", "row-parallel", "pass-split1", "pass-split2", "pass-split3", "hidden-parallel", "vocab-parallel", "data-parallel", "pass-split0"},
	// Expert parallelism with all-to-all routing.
	{"expert-parallel", "expert-tensor-parallel", "alltoall", "slice-experts", "gather-experts", "data-parallel", "pass-split0", "dp-local"},
	// Channel parallelism for convolutional stacks.
	{"outchannel-parallel", "inchannel-parallel", "pass-split3", "column-parallel", "row-parallel", "data-parallel", "pass-split0"},
}

// seedCount bounds the records appendSeeds adds: one per preference row
// plus the memory-minimal one.
var seedCount = len(seedPreferences) + 1

// appendSeeds records one assignment per preference row plus one
// memory-minimal assignment after the tree's, building them on st.
// Patterns are offered to pick in ir.PatternsFor order, not menu order,
// so ties resolve as they always have.
func (st *enumState) appendSeeds(out *records) {
	sh := st.enumShared
	compat := make([]*ir.Pattern, 0, sh.arena)
	build := func(pick func(compat []*ir.Pattern) *ir.Pattern) {
		for i, gn := range sh.instance {
			brs := st.memoAt(i).brs
			compat = compat[:0]
			for _, p := range ir.PatternsFor(gn, sh.opt.W) {
				if slices.ContainsFunc(brs, func(br branch) bool { return br.p == p }) {
					compat = append(compat, p)
				}
			}
			if len(compat) == 0 {
				return
			}
			choice := pick(compat)
			if choice == nil {
				choice = compat[0]
			}
			br, _ := st.branchFor(i, int32(slices.Index(sh.menus[i], choice)))
			st.take(i, br)
		}
		out.add(st.mi, st.price())
	}

	for _, prefs := range seedPreferences {
		build(func(compat []*ir.Pattern) *ir.Pattern {
			for _, want := range prefs {
				for _, p := range compat {
					if p.Name == want {
						return p
					}
				}
			}
			best := compat[0]
			for _, p := range compat[1:] {
				if sh.model.PatternCost(p).Total() < sh.model.PatternCost(best).Total() {
					best = p
				}
			}
			return best
		})
	}

	// Memory-minimal seed: smallest per-device footprint at every node.
	build(func(compat []*ir.Pattern) *ir.Pattern {
		best := compat[0]
		bestMem := 4*best.WeightBytesPerDev + best.OutBytesPerDev
		for _, p := range compat[1:] {
			if m := 4*p.WeightBytesPerDev + p.OutBytesPerDev; m < bestMem {
				best, bestMem = p, m
			}
		}
		return best
	})
}

// diverseTopK selects the cheapest assignment per boundary interface
// (the layouts visible at the instance's entry and exit nodes), so
// assembly can always find a candidate compatible with whatever the
// neighboring classes chose; remaining slots, up to TopK, are filled with
// the next-cheapest assignments. tot holds each record's total. Every
// round scans the records for the first in rank order (see ranked) that
// it wants, so nothing sorts them all. The kept records come back
// cheapest-first, equal totals in the order they were kept.
func (sh *enumShared) diverseTopK(recs records, tot []float64) []int32 {
	topK := sh.opt.TopK
	before := rankOrder(tot)
	keptSet := make([]bool, recs.len())
	var kept []int32
	keep := func(k int32) {
		if !keptSet[k] {
			keptSet[k] = true
			kept = append(kept, k)
		}
	}

	// Round 1: for every boundary node, keep the cheapest assignment
	// exposing each distinct input and output layout there — assembly can
	// then always match whatever the neighbors chose, if a match exists
	// at all. One scan finds the first record in rank order choosing each
	// menu entry of the node; an entry's record is picked when no entry
	// with the same input (or output) layout has one ranking before it.
	// A node's picks are kept in rank order.
	var cheapest, picks []int32
	for _, b := range sh.boundary {
		i := b.i
		menu := sh.menus[i]
		cheapest = slices.Grow(cheapest[:0], len(menu))[:len(menu)]
		for m := range cheapest {
			cheapest[m] = -1
		}
		for k := range int32(recs.len()) {
			if m := recs.idx[int(k)*recs.n+i]; cheapest[m] < 0 || before(k, cheapest[m]) < 0 {
				cheapest[m] = k
			}
		}
		wins := func(m int, axis func(*ir.Pattern) int) bool {
			for o, k := range cheapest {
				if k >= 0 && axis(menu[o]) == axis(menu[m]) && before(k, cheapest[m]) < 0 {
					return false
				}
			}
			return true
		}
		picks = picks[:0]
		for m, k := range cheapest {
			if k >= 0 && (wins(m, inAxis) || wins(m, outAxis)) {
				picks = append(picks, k)
			}
		}
		slices.SortFunc(picks, before)
		for _, k := range picks {
			keep(k)
		}
	}
	// Round 2: always retain the lightest-memory assignment, the cheapest
	// among equals, so the assembler can trade communication for memory
	// when the plain plans would OOM (the paper's TAPAS never runs out of
	// memory when any feasible plan exists).
	light := int32(0)
	for k := range int32(recs.len()) {
		if m, lm := recs.prices[k].mem, recs.prices[light].mem; m < lm || m == lm && before(k, light) < 0 {
			light = k
		}
	}
	keep(light)

	// Round 3: fill up to topK with the globally cheapest assignments.
	// Only the topK cheapest can be needed — at most len(kept) of them are
	// kept already — so they are collected in a bounded window kept in
	// rank order.
	if len(kept) < topK {
		window := make([]int32, 0, topK)
		for k := range int32(recs.len()) {
			if len(window) == topK {
				if before(k, window[topK-1]) > 0 {
					continue
				}
				window = window[:topK-1]
			}
			at, _ := slices.BinarySearchFunc(window, k, before)
			window = slices.Insert(window, at, k)
		}
		for _, k := range window {
			if len(kept) >= topK {
				break
			}
			keep(k)
		}
	}
	slices.SortStableFunc(kept, func(a, b int32) int { return cmp.Compare(tot[a], tot[b]) })
	return kept
}
