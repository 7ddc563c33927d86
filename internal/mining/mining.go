// Package mining implements the paper's Algorithm 1: Apriori frequent
// subgraph search over the GraphNode graph, plus the folding step that
// partitions the graph into classes of identical subgraphs so the strategy
// search runs once per unique subgraph instead of once per occurrence.
package mining

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/parallel"
)

// Options control the mining thresholds of Algorithm 1.
type Options struct {
	// MinSupport is the minimum occurrence count for a subgraph to be
	// considered frequent. Zero selects the paper's default — "we set
	// [minSupport] to be the number of layers", i.e. the repeat count of
	// the dominant repeated block, derived automatically from the graph.
	MinSupport int
	// MinSize is the minimum number of GraphNodes in an output subgraph
	// (the minSize knob swept in the paper's Figure 10).
	MinSize int
	// MaxSize bounds candidate growth; 64 by default.
	MaxSize int
	// MaxInstancesPerPattern and MaxPatternsPerLevel bound the Apriori
	// frontier so mining stays polynomial on adversarial graphs.
	MaxInstancesPerPattern int
	MaxPatternsPerLevel    int
	// Workers bounds the goroutines used for level expansion (0 =
	// GOMAXPROCS, 1 = serial). Results are identical at every worker
	// count: groups are sharded by canonical hash and the per-worker
	// outputs are merged back in ascending hash order, so dedup and the
	// MaxInstancesPerPattern cap truncate the same instances regardless
	// of scheduling.
	Workers int
}

// DefaultOptions returns the thresholds used throughout the evaluation.
func DefaultOptions() Options {
	return Options{
		MinSupport:             0, // auto
		MinSize:                4,
		MaxSize:                64,
		MaxInstancesPerPattern: 256,
		MaxPatternsPerLevel:    8,
	}
}

// Instance is one embedding of a pattern: a connected set of GraphNodes,
// sorted by ID. Mining itself holds instances as member IDs in a level
// arena; an Instance is built only for the patterns Mine emits.
type Instance []*ir.GraphNode

// FNV-1a 64 parameters. Hash values are frozen: they order group merges,
// break MaxPatternsPerLevel ties and order emit, so the golden plans only
// stay byte-identical while every hash stays bit-identical.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvWord folds the eight little-endian bytes of v into FNV-1a state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// splitmix64 is the SplitMix64 output function: a bijection on uint64 that
// mixes every input bit into every output bit.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// word is node v's fixed contribution to an instance key. An instance's
// key is the XOR of its members' words: it does not depend on member
// order, and an instance grown from parent by nb has key parent ^ word(nb),
// so keys are carried from level to level instead of rehashed. Distinct
// nodes have distinct words; larger distinct sets may still share a key,
// which is why the merge confirms every key match on the members.
func word(v int32) uint64 { return splitmix64(uint64(v)) }

// Subgraph is a frequent pattern with all its discovered embeddings.
type Subgraph struct {
	Signature string
	Size      int
	Instances []Instance
}

// Result is the output of Mine.
type Result struct {
	// Frequent lists every frequent subgraph meeting MinSize, largest
	// first.
	Frequent []*Subgraph
	// Elapsed is the mining wall-clock time (the paper's Figure 10
	// right panel).
	Elapsed time.Duration
	// Levels is the number of Apriori growth iterations executed.
	Levels int
	// MinSupportUsed records the effective threshold (after auto
	// derivation).
	MinSupportUsed int
}

// miner carries the per-run state. Everything per-node is a slice indexed
// by GraphNode.ID, the dense position in g.Nodes, and nodes are named by
// int32 IDs throughout.
type miner struct {
	g       *ir.GNGraph
	labels  []uint32     // interned structural label, by node ID
	adj     [2]adjacency // successors, then predecessors
	claimed []bool       // disjointInstances' scratch, by node ID
	hashers chan *hasher // idle hashers: at most one per worker
	opt     Options
	workers int

	// Level buffers, reused from one level to the next so that a level
	// allocates only where it outgrows every level before it. They live
	// and die with one Mine call: nothing is kept across searches.
	found      []addition // seed's and grow's candidate additions
	ends       []int      // grow's scratch: each run's window end in found
	claimOrder []claimKey // disjointInstances' scratch
	mergeBufs
	spare *level // the level before last: filterFrequent builds into its arena
}

// adjacency is one direction of the graph's edges as node IDs, in GNGraph
// order: node v's neighbours are to[off[v]:off[v+1]].
type adjacency struct {
	off, to []int32
}

func newAdjacency(g *ir.GNGraph, list func(*ir.GraphNode) []*ir.GraphNode) adjacency {
	a := adjacency{off: make([]int32, len(g.Nodes)+1)}
	for _, gn := range g.Nodes {
		a.off[gn.ID+1] = int32(len(list(gn)))
	}
	for v := range g.Nodes {
		a.off[v+1] += a.off[v]
	}
	a.to = make([]int32, 0, a.off[len(g.Nodes)])
	for _, gn := range g.Nodes {
		for _, nb := range list(gn) {
			a.to = append(a.to, int32(nb.ID))
		}
	}
	return a
}

// of returns node v's neighbours.
func (a *adjacency) of(v int32) []int32 { return a.to[a.off[v]:a.off[v+1]] }

// newMiner interns the node labels and builds the adjacency lists once,
// and resolves the zero options (auto MinSupport reads the same labels).
func newMiner(g *ir.GNGraph, opt Options) *miner {
	labels, _ := internLabels(g)
	m := &miner{
		g:          g,
		labels:     labels,
		adj:        [2]adjacency{newAdjacency(g, g.Succs), newAdjacency(g, g.Preds)},
		claimed:    make([]bool, len(g.Nodes)),
		claimOrder: make([]claimKey, 0, len(g.Nodes)),
	}
	if opt.MinSupport <= 0 {
		opt.MinSupport = autoMinSupport(g, m.labels)
	}
	if opt.MaxSize < 1 {
		opt.MaxSize = 64
	}
	if opt.MaxInstancesPerPattern <= 0 {
		opt.MaxInstancesPerPattern = 256
	}
	if opt.MaxPatternsPerLevel <= 0 {
		opt.MaxPatternsPerLevel = 8
	}
	m.opt = opt
	m.workers = parallel.Workers(opt.Workers)
	m.hashers = make(chan *hasher, m.workers)
	return m
}

// internLabels numbers the distinct GraphNode Signatures in first-seen
// order without rendering one: nodes are bucketed by structHash, every
// hash match is confirmed by sameStructure, and a collision falls back to
// a scan of all labels. So each label equals the one interning the
// Signature strings would give. It returns the labels by node ID and the
// label count.
func internLabels(g *ir.GNGraph) ([]uint32, int) {
	labels := make([]uint32, len(g.Nodes))
	byHash := make(map[uint64]uint32) // structural hash → first label with it
	var reps []*ir.GraphNode          // by label: the node that introduced it
	for _, gn := range g.Nodes {
		h := structHash(gn)
		l, ok := byHash[h]
		if !ok || !sameStructure(gn, reps[l]) {
			i := -1
			if ok {
				i = slices.IndexFunc(reps, func(r *ir.GraphNode) bool { return sameStructure(gn, r) })
			}
			if i < 0 {
				i = len(reps)
				reps = append(reps, gn)
				if !ok {
					byHash[h] = uint32(i)
				}
			}
			l = uint32(i)
		}
		labels[gn.ID] = l
	}
	return labels, len(reps)
}

// structHash mixes what Signature renders — kind, op kinds, weight shapes,
// boundary shapes — into 64 bits, a word at a time. Signature omits a nil
// boundary shape and renders an empty one, so the two hash apart; it
// renders a nil and an empty weight shape alike, so only a weight's dims
// count.
func structHash(gn *ir.GraphNode) uint64 {
	h := mixWord(fnvOffset, uint64(gn.Kind))
	h = mixWord(h, uint64(len(gn.Ops)))
	for _, op := range gn.Ops {
		h = mixWord(h, uint64(op.Kind))
	}
	h = mixWord(h, uint64(len(gn.Weights)))
	for _, w := range gn.Weights {
		h = hashShape(h, w.Shape)
	}
	for _, s := range [2]graph.Shape{gn.InShape(), gn.OutShape()} {
		if s == nil {
			h = mixWord(h, 0)
		} else {
			h = hashShape(mixWord(h, 1), s)
		}
	}
	return h
}

func hashShape(h uint64, s graph.Shape) uint64 {
	h = mixWord(h, uint64(len(s)))
	for _, d := range s {
		h = mixWord(h, uint64(d))
	}
	return h
}

// mixWord folds v into h as one FNV-1a round over the whole word: cheaper
// than fnvWord's eight byte rounds. Unlike the pattern hashes, a structural
// hash is never frozen, and every match is confirmed.
func mixWord(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// sameStructure reports whether a and b render the same Signature.
func sameStructure(a, b *ir.GraphNode) bool {
	return a.Kind == b.Kind &&
		slices.EqualFunc(a.Ops, b.Ops, func(x, y *graph.Node) bool { return x.Kind == y.Kind }) &&
		slices.EqualFunc(a.Weights, b.Weights, func(x, y *graph.Tensor) bool { return slices.Equal(x.Shape, y.Shape) }) &&
		sameBoundary(a.InShape(), b.InShape()) && sameBoundary(a.OutShape(), b.OutShape())
}

func sameBoundary(x, y graph.Shape) bool { return (x == nil) == (y == nil) && slices.Equal(x, y) }

// hasher is the scratch one expandGroup call hashes and compares its
// candidates on, so neither allocates once the buffers have grown. It is
// reused across calls through the miner's pool.
type hasher struct {
	m           *miner
	pos         []int32  // by node ID: member index+1 during an edge walk, else 0
	edges       []uint64 // the sorted edge list of the instance last hashed
	added       []uint64 // its edges at the added node (see sameReplay)
	other       []uint64 // the edges of the instance last compared
	ext, replay []int32  // expandGroup's candidate member lists
}

func (m *miner) newHasher() *hasher {
	return &hasher{m: m, pos: make([]int32, len(m.g.Nodes))}
}

// hasher takes an idle hasher, or makes one when every hasher made so far
// is in use; release hands it back. At most m.workers expandGroup calls
// run at once, so a Mine makes at most one hasher per worker. Unlike a
// sync.Pool, the idle list never drops one, so the count is exact.
func (m *miner) hasher() *hasher {
	select {
	case hs := <-m.hashers:
		return hs
	default:
		return m.newHasher()
	}
}

func (m *miner) release(hs *hasher) {
	select {
	case m.hashers <- hs:
	default:
	}
}

// canonicalHash produces a canonical structural hash of an instance, given
// as ascending member IDs: member labels in ID order plus the internal
// edge relation in member-index space. Instances of a repeated block keep
// consistent internal ID ordering (GraphNodes are numbered topologically),
// so structurally identical repeats map to equal hashes.
func (hs *hasher) canonicalHash(in []int32) uint64 {
	h := fnvOffset
	for _, v := range in {
		h = fnvWord(h, uint64(hs.m.labels[v]))
	}
	hs.edges = hs.edgeList(hs.edges[:0], in)
	for _, e := range hs.edges {
		h = fnvWord(h, e)
	}
	return h
}

// sameForm reports whether in has the label sequence and sorted edge list
// of ref, the instance canonicalHash last hashed: the hash's whole input,
// so canonicalHash(in) == canonicalHash(ref) short of a 64-bit collision.
func (hs *hasher) sameForm(ref, in []int32) bool {
	for i, v := range in {
		if hs.m.labels[v] != hs.m.labels[ref[i]] {
			return false
		}
	}
	hs.other = hs.edgeList(hs.other[:0], in)
	return slices.Equal(hs.other, hs.edges)
}

// addedEdges appends the edges of in's sorted edge list (see edgeList)
// that touch member index p to an empty dst, sorted. Group builds the
// successor and predecessor lists as mirror images with no repeated edge
// and no self-edge, so in[p]'s successors give its out-edges and its
// predecessors its in-edges, each once. in ascends, so a neighbour
// outside [in[0], in[len(in)-1]] is no member, and one inside is found
// by binary search: a high fan-out node's neighbours are mostly far away.
func (hs *hasher) addedEdges(dst []uint64, in []int32, p int) []uint64 {
	v, lo, hi := in[p], in[0], in[len(in)-1]
	for _, s := range hs.m.adj[0].of(v) {
		if s < lo || s > hi {
			continue
		}
		if j, ok := slices.BinarySearch(in, s); ok {
			dst = append(dst, uint64(p)<<32|uint64(j))
		}
	}
	for _, u := range hs.m.adj[1].of(v) {
		if u < lo || u > hi {
			continue
		}
		if j, ok := slices.BinarySearch(in, u); ok {
			dst = append(dst, uint64(j)<<32|uint64(p))
		}
	}
	slices.Sort(dst)
	return dst
}

// sameReplay reports whether in has the form of ref, where ref is the
// extension canonicalHash last hashed, its node added at member index p
// with the edges there in hs.added, and in is another instance of ref's
// parent pattern grown by nb. It decides what sameForm(ref, in) decides.
//
// Invariant: every instance of a run has its first instance's form. The
// replay keeps only instances with the representative's form, merge
// buckets additions into runs by canonical hash, and the hash's input is
// the whole form, so this holds short of a 64-bit collision, as the
// bucketing already assumes. So in without nb has the form of ref
// without ref[p]. When nb also lands at index p, the two agree on every
// other index's label and on every edge between other indices, and the
// forms are equal exactly when the added nodes' labels and their edges to
// the other members, by index, are. When nb lands elsewhere the indices
// shift differently, and the full sameForm decides.
func (hs *hasher) sameReplay(ref []int32, p int, in []int32, nb int32) bool {
	if in[p] != nb {
		return hs.sameForm(ref, in)
	}
	if hs.m.labels[nb] != hs.m.labels[ref[p]] {
		return false
	}
	hs.other = hs.addedEdges(hs.other[:0], in, p)
	return slices.Equal(hs.other, hs.added)
}

// edgeList appends in's internal edges, in member-index space and sorted,
// to an empty dst. pos is written for the members and zeroed again before
// returning: a stale entry would count as a member of the next instance.
func (hs *hasher) edgeList(dst []uint64, in []int32) []uint64 {
	for i, v := range in {
		hs.pos[v] = int32(i + 1)
	}
	succ := &hs.m.adj[0]
	for i, v := range in {
		for _, s := range succ.of(v) {
			if j := hs.pos[s]; j != 0 {
				dst = append(dst, uint64(i)<<32|uint64(j-1))
			}
		}
	}
	for _, v := range in {
		hs.pos[v] = 0
	}
	slices.Sort(dst)
	return dst
}

// readableSig renders a human-readable signature for an emitted pattern.
func (m *miner) readableSig(in Instance) string {
	var b strings.Builder
	for i, gn := range in {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(gn.Signature())
	}
	return b.String()
}

// AutoMinSupport derives the paper's default threshold: the multiplicity
// of the most-repeated layer structure. Layers are compared by the
// multiset of their GraphNode labels, so e.g. all encoder layers of a T5
// form one group whose size becomes the support threshold.
func AutoMinSupport(g *ir.GNGraph) int {
	labels, _ := internLabels(g)
	return autoMinSupport(g, labels)
}

func autoMinSupport(g *ir.GNGraph, labels []uint32) int {
	byLayer := make(map[string][]uint32)
	var order []string
	for _, gn := range g.Nodes {
		if _, ok := byLayer[gn.Layer]; !ok {
			order = append(order, gn.Layer)
		}
		byLayer[gn.Layer] = append(byLayer[gn.Layer], labels[gn.ID])
	}
	groups := make(map[string]int)
	best := 2
	for _, layer := range order {
		ls := byLayer[layer] // owned by this call: sort in place
		slices.Sort(ls)
		key := fmt.Sprint(ls)
		groups[key]++
		if groups[key] > best {
			best = groups[key]
		}
	}
	return best
}

// Mine runs Algorithm 1 over the GraphNode graph: it seeds single-node
// candidates, counts support, then iteratively grows frequent patterns by
// one adjacent node until no pattern stays frequent, returning all
// frequent subgraphs with at least MinSize nodes.
//
// Cancelling ctx stops the Apriori level expansion early and returns the
// subgraphs mined so far; callers that must abort outright should check
// ctx.Err() after Mine returns (Fold degrades gracefully on a partial
// result — unmined regions simply stay unfolded).
func Mine(ctx context.Context, g *ir.GNGraph, opt Options) *Result {
	start := time.Now()
	m := newMiner(g, opt)
	res := &Result{MinSupportUsed: m.opt.MinSupport}

	// Level 1, then one level per iteration; each level replaces the last.
	lv := m.seed()
	m.emit(res, lv)
	res.Levels = 1
	for lv.k < m.opt.MaxSize && len(lv.runs) > 0 && ctx.Err() == nil {
		next, err := m.grow(ctx, lv)
		if err != nil || len(next.runs) == 0 {
			break // lines 12–13: no more frequent subgraphs of size k
		}
		res.Levels = next.k
		m.emit(res, next)
		m.spare, lv = lv, next
	}

	// Largest patterns first, then by support, then deterministic by
	// signature.
	sort.Slice(res.Frequent, func(i, j int) bool {
		a, b := res.Frequent[i], res.Frequent[j]
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		if len(a.Instances) != len(b.Instances) {
			return len(a.Instances) > len(b.Instances)
		}
		return a.Signature < b.Signature
	})
	res.Elapsed = time.Since(start)
	return res
}

// level is one Apriori level, held in an arena: instance i has the k
// ascending member IDs ids[i*k:(i+1)*k] and the key keys[i]. A pattern's
// instances are one contiguous run of indices, and the runs ascend by
// pattern hash. Workers share a level read-only while they expand it.
type level struct {
	k    int
	ids  []int32
	keys []uint64
	runs []run
}

// run is one pattern's instances in a level, or its additions in a merged
// list: indices [lo, hi), under the pattern's canonical hash h.
type run struct {
	h      uint64
	lo, hi int32
}

// members returns instance i's member IDs; the empty parent −1 has none.
func (lv *level) members(i int32) []int32 {
	if i < 0 {
		return nil
	}
	at := int(i) * lv.k
	return lv.ids[at : at+lv.k : at+lv.k]
}

// addition is one candidate instance for the next level: parent ∪ {nb},
// where parent indexes the current level's arena (−1 is level 1's empty
// parent), h is the pattern's canonical hash and key the instance key,
// carried as the parent's key ^ word(nb). It holds no pointer, so the GC
// never scans an addition list and copying one needs no write barrier.
// Only additions that survive filterFrequent are built into the next
// level's arena.
type addition struct {
	h, key     uint64
	parent, nb int32
}

// extent returns the lowest member ID of a's instance and its ID span.
func (lv *level) extent(a addition) (first, span int32) {
	lo, hi := a.nb, a.nb
	if p := lv.members(a.parent); len(p) > 0 {
		lo, hi = min(lo, p[0]), max(hi, p[len(p)-1])
	}
	return lo, hi - lo
}

// seed builds level 1 (Algorithm 1 lines 2–6): every GraphNode is a
// candidate single-node subgraph, grown from the empty parent. A lone
// node has no internal edge: its canonical hash is its label folded once.
// Seeds are never capped.
func (m *miner) seed() *level {
	m.found = slices.Grow(m.found[:0], len(m.g.Nodes))
	seeds := m.found[:len(m.g.Nodes)]
	for v := range seeds {
		h := fnvWord(fnvOffset, uint64(m.labels[v]))
		seeds[v] = addition{h: h, key: word(int32(v)), parent: -1, nb: int32(v)}
	}
	empty := &level{}
	adds, runs := m.merge(empty, [][]addition{seeds}, len(seeds))
	return m.filterFrequent(empty, adds, runs)
}

// grow builds level lv.k+1 (lines 7–14) by extending lv's frequent
// patterns by one adjacent node. Extensions are enumerated once on a
// representative instance and replayed positionally on the others —
// instances of a repeated block keep consistent internal ordering, so the
// j-th neighbor of member i corresponds across instances; instances where
// the replay diverges (block boundaries) simply drop out of the support
// count.
//
// Pattern groups expand independently, so each group runs as one work
// unit on the pool. Dedup and the MaxInstancesPerPattern cap are
// order-sensitive, so they are NOT applied inside workers: each worker
// emits its group's candidate additions in deterministic local order, and
// merge replays them in ascending canonical-hash group order. Every worker
// count therefore produces the exact frontier of a serial sweep in
// sorted-group order.
//
// Each extension of a representative yields at most one addition per
// instance, so run i's additions fit a window of m.found sized from a
// count of its representative's extensions; the windows are carved
// before the workers start, and each is written by the one worker that
// expands its run.
func (m *miner) grow(ctx context.Context, lv *level) (*level, error) {
	total := 0
	m.ends = m.ends[:0]
	for _, r := range lv.runs {
		total += m.extensions(lv.members(r.lo)) * int(r.hi-r.lo)
		m.ends = append(m.ends, total)
	}
	m.found = slices.Grow(m.found[:0], total)
	lists, err := parallel.Map(ctx, m.workers, lv.runs, func(_ context.Context, i int, r run) ([]addition, error) {
		lo := 0
		if i > 0 {
			lo = m.ends[i-1]
		}
		return m.expandGroup(lv, r, m.found[lo:lo:m.ends[i]]), nil
	})
	if err != nil {
		return nil, err
	}
	adds, runs := m.merge(lv, lists, m.opt.MaxInstancesPerPattern)
	return m.filterFrequent(lv, adds, runs), nil
}

// extensions counts the one-node extensions of the instance rep: its
// members' neighbours, in both directions, that are not members.
func (m *miner) extensions(rep []int32) int {
	n := 0
	for _, v := range rep {
		for dir := range m.adj {
			for _, nb := range m.adj[dir].of(v) {
				if !slices.Contains(rep, nb) {
					n++
				}
			}
		}
	}
	return n
}

// expandGroup appends to adds, an empty window with room for every
// extension of the representative on every instance (see grow), the
// one-node extensions of the pattern whose instances are lv's run r:
// every (member, direction, neighbor-index) extension of the
// representative, hashed once, replayed positionally on the other
// instances and kept where the replay has the representative's form
// (sameReplay). It reads lv and the miner without writing them and does
// no dedup: an instance emitted twice is dropped by the merge.
func (m *miner) expandGroup(lv *level, r run, adds []addition) []addition {
	hs := m.hasher()
	defer m.release(hs)
	rep := lv.members(r.lo)
	ext, replay := hs.ext, hs.replay
	for i, v := range rep {
		for dir := range m.adj {
			a := &m.adj[dir]
			for j, nb := range a.of(v) {
				if slices.Contains(rep, nb) {
					continue
				}
				ext = extendInto(ext, rep, nb)
				h := hs.canonicalHash(ext)
				p, _ := slices.BinarySearch(ext, nb)
				hs.added = hs.addedEdges(hs.added[:0], ext, p)
				adds = append(adds, addition{h, lv.keys[r.lo] ^ word(nb), r.lo, nb})
				// Replay the (i, dir, j) extension on the other
				// instances.
				for inst := r.lo + 1; inst < r.hi; inst++ {
					members := lv.members(inst)
					nbs := a.of(members[i])
					if j >= len(nbs) || slices.Contains(members, nbs[j]) {
						continue
					}
					replay = extendInto(replay, members, nbs[j])
					if hs.sameReplay(ext, p, replay, nbs[j]) {
						adds = append(adds, addition{h, lv.keys[inst] ^ word(nbs[j]), inst, nbs[j]})
					}
				}
			}
		}
	}
	hs.ext, hs.replay = ext, replay
	return adds
}

// extendInto writes in ∪ {nb} into dst (ascending) and returns it,
// reusing dst's backing array when it has capacity.
func extendInto(dst, in []int32, nb int32) []int32 {
	dst = append(dst[:0], in...)
	dst = append(dst, nb)
	p := len(dst) - 1
	for p > 0 && dst[p-1] > nb {
		dst[p] = dst[p-1]
		p--
	}
	dst[p] = nb
	return dst
}

// mergeBufs is merge's scratch. It is kept on the miner and reused by
// every level: the slices keep their capacity and the map its buckets.
type mergeBufs struct {
	kept, adds []addition
	pattern    []int32 // kept[i]'s index in runs
	runs       []run
	index      map[uint64]int32 // pattern hash → index in runs
	// first maps an instance key to the first survivor with it: an
	// open-addressing table of 1 + an index in kept, 0 for an empty slot,
	// probed linearly from the key's low bits. Keys are XORs of SplitMix64
	// outputs, so their low bits are already mixed.
	first  []int32
	sa, sb []int32 // duplicate's member lists
}

// merge replays the addition lists in order, drops duplicate instances
// and each pattern's additions past limit, and returns the survivors
// bucketed by pattern: the additions of runs[p] are adds[runs[p].lo:
// runs[p].hi], in arrival order, and runs are in first-arrival order. An
// addition is a duplicate when a survivor has its hash, its key and its
// member set. The first survivor with the key is checked first and, when
// it is not one — a key collision — every later survivor, so dedup never
// rests on the key being collision-free. Both results are b's buffers:
// they hold until the next merge on b.
func (b *mergeBufs) merge(lv *level, lists [][]addition, limit int) ([]addition, []run) {
	total := 0
	for _, adds := range lists {
		total += len(adds)
	}
	b.kept = slices.Grow(b.kept[:0], total)
	b.pattern = slices.Grow(b.pattern[:0], total)
	b.runs = b.runs[:0] // hi counts survivors until bucketing
	if b.index == nil {
		b.index = make(map[uint64]int32)
	} else {
		clear(b.index)
	}
	size := 8 // a power of two at least twice the additions: short probes
	for size < 2*total {
		size <<= 1
	}
	b.first = slices.Grow(b.first[:0], size)[:size]
	clear(b.first)
	mask := uint64(size - 1)
	for _, adds := range lists {
		for _, a := range adds {
			p, ok := b.index[a.h]
			if !ok {
				p = int32(len(b.runs))
				b.index[a.h] = p
				b.runs = append(b.runs, run{h: a.h})
			}
			if int(b.runs[p].hi) >= limit {
				continue
			}
			slot := a.key & mask
			for b.first[slot] != 0 && b.kept[b.first[slot]-1].key != a.key {
				slot = (slot + 1) & mask
			}
			if f := b.first[slot]; f == 0 {
				b.first[slot] = int32(len(b.kept)) + 1
			} else if b.duplicate(lv, f-1, a) {
				continue
			}
			b.kept = append(b.kept, a)
			b.pattern = append(b.pattern, p)
			b.runs[p].hi++
		}
	}
	off := int32(0)
	for p := range b.runs {
		n := b.runs[p].hi
		b.runs[p].lo, b.runs[p].hi = off, off
		off += n
	}
	b.adds = slices.Grow(b.adds[:0], len(b.kept))[:len(b.kept)]
	for i, a := range b.kept {
		r := &b.runs[b.pattern[i]]
		b.adds[r.hi] = a
		r.hi++
	}
	return b.adds, b.runs
}

// duplicate reports whether a survivor from kept[first:] has a's hash,
// key and member set.
func (b *mergeBufs) duplicate(lv *level, first int32, a addition) bool {
	b.sa = extendInto(b.sa, lv.members(a.parent), a.nb)
	for _, s := range b.kept[first:] {
		if s.h == a.h && s.key == a.key {
			if b.sb = extendInto(b.sb, lv.members(s.parent), s.nb); slices.Equal(b.sa, b.sb) {
				return true
			}
		}
	}
	return false
}

// filterFrequent reduces each pattern's additions (runs over adds, from
// merge, on level lv) to a maximal set of pairwise disjoint ones
// (disjoint support keeps the Apriori downward-closure property and is
// exactly what folding needs), drops infrequent patterns, caps the level
// width, and builds the surviving additions — and only those — into the
// next level's arena, patterns in ascending hash order. The arena is the
// spare level's when there is one: Mine hands back each level once the
// one after it is built and emitted.
func (m *miner) filterFrequent(lv *level, adds []addition, runs []run) *level {
	kept := runs[:0]
	for _, r := range runs {
		if n := m.disjointInstances(lv, adds[r.lo:r.hi]); n >= m.opt.MinSupport {
			kept = append(kept, run{r.h, r.lo, r.lo + int32(n)})
		}
	}
	if len(kept) > m.opt.MaxPatternsPerLevel {
		slices.SortFunc(kept, func(a, b run) int {
			return cmp.Or(cmp.Compare(b.hi-b.lo, a.hi-a.lo), cmp.Compare(a.h, b.h))
		})
		kept = kept[:m.opt.MaxPatternsPerLevel]
	}
	slices.SortFunc(kept, func(a, b run) int { return cmp.Compare(a.h, b.h) })
	n := 0
	for _, r := range kept {
		n += int(r.hi - r.lo)
	}
	k := lv.k + 1
	next := m.spare
	if m.spare = nil; next == nil {
		next = &level{}
	}
	next.k = k
	next.ids = slices.Grow(next.ids[:0], n*k)[:n*k]
	next.keys = slices.Grow(next.keys[:0], n)[:n]
	next.runs = append(next.runs[:0], kept...)
	i := 0
	for p, r := range next.runs {
		next.runs[p].lo = int32(i)
		for _, a := range adds[r.lo:r.hi] {
			extendInto(next.ids[i*k:i*k:(i+1)*k], lv.members(a.parent), a.nb)
			next.keys[i] = a.key
			i++
		}
		next.runs[p].hi = int32(i)
	}
	return next
}

// disjointInstances greedily moves a maximal subset of pairwise
// node-disjoint additions to the front of adds and returns its size.
// Compact instances (smallest ID span) are claimed first: embeddings that
// bridge two repeats of a block span more IDs than embeddings aligned
// with one repeat, so this keeps the surviving tiling aligned with the
// natural block boundaries — which both maximizes the disjoint support
// and keeps pipeline stages cuttable. The kept additions come first in
// claim order.
func (m *miner) disjointInstances(lv *level, adds []addition) int {
	// Each addition's extent is read once. Ties on (span, first ID) keep
	// the incoming order, which is deterministic (merge order): with the
	// position as the last key the order is total, so an unstable sort
	// gives the stable one.
	keys := m.claimOrder[:0]
	for at, a := range adds {
		// Sprawling embeddings (e.g. star-shaped subgraphs hanging off a
		// high-fanout tensor) are poor reuse units: they interleave with
		// many other blocks and block pipeline-stage cuts. Cap the ID
		// span at 4× the member count.
		if first, span := lv.extent(a); int(span) < 4*(lv.k+1) {
			keys = append(keys, claimKey{span, first, int32(at), a})
		}
	}
	m.claimOrder = keys
	slices.SortFunc(keys, func(a, b claimKey) int {
		return cmp.Or(cmp.Compare(a.span, b.span), cmp.Compare(a.first, b.first), cmp.Compare(a.at, b.at))
	})
	clear(m.claimed)
	n := 0
	for _, key := range keys {
		if claim(m.claimed, lv.members(key.a.parent), key.a.nb) {
			adds[n] = key.a
			n++
		}
	}
	return n
}

// claimKey is addition a keyed for disjointInstances' claim order: its
// ID span, its lowest member ID and its position in the run.
type claimKey struct {
	span, first, at int32
	a               addition
}

// claim marks the nodes of in and nb in the ID-indexed claimed table and
// reports true, or leaves the table alone and reports false when any of
// them is already taken.
func claim(claimed []bool, in []int32, nb int32) bool {
	if claimed[nb] {
		return false
	}
	for _, v := range in {
		if claimed[v] {
			return false
		}
	}
	for _, v := range in {
		claimed[v] = true
	}
	claimed[nb] = true
	return true
}

// emit records the frequent patterns of a level that meet MinSize, in
// ascending canonical-hash order so res.Frequent is fully deterministic
// even when the final sort's keys tie (readable signatures omit edges,
// so two distinct patterns can share one). This is where a pattern's
// instances become GraphNodes: one backing array per pattern, each
// instance a window capped at its own size, so an append to one never
// reaches the next.
func (m *miner) emit(res *Result, lv *level) {
	if lv.k < m.opt.MinSize {
		return
	}
	for _, r := range lv.runs {
		ids := lv.ids[int(r.lo)*lv.k : int(r.hi)*lv.k]
		nodes, ins := make([]*ir.GraphNode, len(ids)), make([]Instance, r.hi-r.lo)
		for i, v := range ids {
			nodes[i] = m.g.Nodes[v]
		}
		for i := range ins {
			ins[i] = nodes[i*lv.k : (i+1)*lv.k : (i+1)*lv.k]
		}
		res.Frequent = append(res.Frequent, &Subgraph{
			Signature: m.readableSig(ins[0]),
			Size:      lv.k,
			Instances: ins,
		})
	}
}

// Class is one fold-equivalence class: disjoint structurally identical
// subgraph instances that share a single parallel strategy. Nodes not
// covered by any frequent pattern form singleton classes grouped by
// GraphNode signature.
type Class struct {
	Signature string
	Instances []Instance
}

// Representative returns the instance the strategy search runs on.
func (c *Class) Representative() Instance { return c.Instances[0] }

// Size returns the node count of one instance.
func (c *Class) Size() int { return len(c.Instances[0]) }

// Fold partitions the GraphNode graph into classes: it walks the frequent
// subgraphs largest-first, greedily claims disjoint instances, and groups
// every remaining node into per-signature singleton classes. The classes
// are the paper's "set of unique subgraphs" — search effort is spent once
// per class.
func Fold(g *ir.GNGraph, res *Result) []*Class {
	claimed := make([]bool, len(g.Nodes))
	var classes []*Class

	// Consume patterns by total coverage (size × support): a pattern that
	// tiles the whole repeated stack (e.g. exactly one transformer layer,
	// L times) beats a slightly larger pattern that straddles block
	// boundaries and therefore embeds fewer times.
	ordered := append([]*Subgraph{}, res.Frequent...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ci := ordered[i].Size * len(ordered[i].Instances)
		cj := ordered[j].Size * len(ordered[j].Instances)
		if ci != cj {
			return ci > cj
		}
		return ordered[i].Size > ordered[j].Size
	})

	for _, sub := range ordered {
		var taken []Instance
		for _, in := range sub.Instances {
			if !slices.ContainsFunc(in, func(gn *ir.GraphNode) bool { return claimed[gn.ID] }) {
				for _, gn := range in {
					claimed[gn.ID] = true
				}
				taken = append(taken, in)
			}
		}
		// A pattern with a single claimable instance offers no reuse:
		// release it so its nodes fall to better-aligned patterns or to
		// per-signature singletons.
		if len(taken) < 2 {
			for _, in := range taken {
				for _, gn := range in {
					claimed[gn.ID] = false
				}
			}
			continue
		}
		classes = append(classes, &Class{Signature: sub.Signature, Instances: taken})
	}

	// Leftovers: group singletons by node label — equal labels are equal
	// Signatures — so e.g. the encoder and decoder embedding lookups still
	// share one search. Each leftover class renders one Signature.
	labels, n := internLabels(g)
	byLabel := make([]*Class, n)
	for _, gn := range g.Nodes {
		if claimed[gn.ID] {
			continue
		}
		c := byLabel[labels[gn.ID]]
		if c == nil {
			c = &Class{Signature: gn.Signature()}
			byLabel[labels[gn.ID]] = c
			classes = append(classes, c)
		}
		c.Instances = append(c.Instances, Instance{gn})
	}
	return classes
}

// CoverageCheck verifies the fold invariant: every GraphNode belongs to
// exactly one instance of exactly one class. It returns an error message
// list (empty when the partition is valid) — part of the paper's static
// analysis that "the optimized subgraphs will combine to form a valid
// solution".
func CoverageCheck(g *ir.GNGraph, classes []*Class) []string {
	count := make([]int, len(g.Nodes))
	for _, c := range classes {
		for _, in := range c.Instances {
			for _, gn := range in {
				count[gn.ID]++
			}
		}
	}
	var errs []string
	for _, gn := range g.Nodes {
		switch count[gn.ID] {
		case 1:
		case 0:
			errs = append(errs, fmt.Sprintf("node %v not covered", gn))
		default:
			errs = append(errs, fmt.Sprintf("node %v covered %d times", gn, count[gn.ID]))
		}
	}
	return errs
}
