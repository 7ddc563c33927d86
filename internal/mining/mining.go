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
// sorted by ID.
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

// key returns a collision-resistant identity for the node set.
func (in Instance) key() uint64 {
	h := fnvOffset
	for _, gn := range in {
		h = fnvWord(h, uint64(gn.ID))
	}
	return h
}

// contains reports membership of a GraphNode.
func (in Instance) contains(gn *ir.GraphNode) bool {
	for _, m := range in {
		if m == gn {
			return true
		}
	}
	return false
}

// Subgraph is a frequent pattern with all its discovered embeddings.
type Subgraph struct {
	Signature string
	Size      int
	Instances []Instance
}

// Support returns the embedding count.
func (s *Subgraph) Support() int { return len(s.Instances) }

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
// by GraphNode.ID, the dense position in g.Nodes.
type miner struct {
	g      *ir.GNGraph
	labels []uint32 // interned structural label, by node ID
	opt    Options
}

// newMiner interns the node labels once and resolves the zero options
// (auto MinSupport reads the same labels).
func newMiner(g *ir.GNGraph, opt Options) *miner {
	m := &miner{g: g, labels: internLabels(g)}
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
	return m
}

// internLabels assigns a small integer to every distinct GraphNode
// signature, indexed by node ID.
func internLabels(g *ir.GNGraph) []uint32 {
	bySig := make(map[string]uint32)
	out := make([]uint32, len(g.Nodes))
	for _, gn := range g.Nodes {
		sig := gn.Signature()
		id, ok := bySig[sig]
		if !ok {
			id = uint32(len(bySig))
			bySig[sig] = id
		}
		out[gn.ID] = id
	}
	return out
}

// hasher is the scratch one expandGroup call hashes and compares its
// candidates on, so neither allocates once the edge buffers have grown.
type hasher struct {
	m     *miner
	pos   []int32  // by node ID: member index+1 during an edge walk, else 0
	edges []uint64 // the sorted edge list of the instance last hashed
	other []uint64 // the sorted edge list of the instance last compared
}

func (m *miner) newHasher() *hasher {
	return &hasher{m: m, pos: make([]int32, len(m.g.Nodes))}
}

// canonicalHash produces a canonical structural hash of an instance:
// member labels in ID order plus the internal edge relation in
// member-index space. Instances of a repeated block keep consistent
// internal ID ordering (GraphNodes are numbered topologically), so
// structurally identical repeats map to equal hashes.
func (hs *hasher) canonicalHash(in Instance) uint64 {
	h := fnvOffset
	for _, gn := range in {
		h = fnvWord(h, uint64(hs.m.labels[gn.ID]))
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
func (hs *hasher) sameForm(ref, in Instance) bool {
	for i, gn := range in {
		if hs.m.labels[gn.ID] != hs.m.labels[ref[i].ID] {
			return false
		}
	}
	hs.other = hs.edgeList(hs.other[:0], in)
	return slices.Equal(hs.other, hs.edges)
}

// edgeList appends in's internal edges, in member-index space and sorted,
// to an empty dst. pos is written for the members and zeroed again before
// returning: a stale entry would count as a member of the next instance.
func (hs *hasher) edgeList(dst []uint64, in Instance) []uint64 {
	for i, gn := range in {
		hs.pos[gn.ID] = int32(i + 1)
	}
	for i, gn := range in {
		for _, s := range hs.m.g.Succs(gn) {
			if j := hs.pos[s.ID]; j != 0 {
				dst = append(dst, uint64(i)<<32|uint64(j-1))
			}
		}
	}
	for _, gn := range in {
		hs.pos[gn.ID] = 0
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
func AutoMinSupport(g *ir.GNGraph) int { return autoMinSupport(g, internLabels(g)) }

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
	opt = m.opt
	res := &Result{MinSupportUsed: opt.MinSupport}
	workers := parallel.Workers(opt.Workers)

	// Level 1: every GraphNode is a candidate single-node subgraph
	// (Algorithm 1 lines 2–6), grown from the empty parent. A lone node
	// has no internal edge: its canonical hash is its label folded once.
	seeds := make(map[uint64][]addition)
	for _, gn := range g.Nodes {
		h := fnvWord(fnvOffset, uint64(m.labels[gn.ID]))
		seeds[h] = append(seeds[h], addition{h: h, nb: gn})
	}
	level := m.filterFrequent(seeds)
	m.emit(res, level, 1)
	res.Levels = 1

	// Levels 2..MaxSize: extend frequent patterns by one adjacent node
	// (lines 7–14). Extensions are enumerated once on a representative
	// instance and replayed positionally on the others — instances of a
	// repeated block keep consistent internal ordering, so the j-th
	// neighbor of member i corresponds across instances; instances where
	// the replay diverges (block boundaries) simply drop out of the
	// support count.
	//
	// Pattern groups expand independently, so each group runs as one
	// work unit on the pool. Dedup and the MaxInstancesPerPattern cap
	// are order-sensitive, so they are NOT applied inside workers:
	// each worker emits its group's candidate additions in deterministic
	// local order, and the merge below replays them in ascending
	// canonical-hash group order. Every worker count therefore produces
	// the exact frontier of a serial sweep in sorted-group order.
	for k := 2; k <= opt.MaxSize && len(level) > 0 && ctx.Err() == nil; k++ {
		groups := sortedHashes(level)
		lists, err := parallel.Map(ctx, workers, groups, func(_ context.Context, _ int, h uint64) ([]addition, error) {
			return m.expandGroup(level[h]), nil
		})
		if err != nil {
			break
		}
		total := 0
		for _, adds := range lists {
			total += len(adds)
		}
		next := make(map[uint64][]addition)
		seen := make(map[[2]uint64]struct{}, total) // (pattern hash, instance key)
		for _, adds := range lists {
			for _, a := range adds {
				id := [2]uint64{a.h, a.key}
				if _, dup := seen[id]; dup || len(next[a.h]) >= opt.MaxInstancesPerPattern {
					continue
				}
				seen[id] = struct{}{}
				next[a.h] = append(next[a.h], a)
			}
		}
		built := m.filterFrequent(next)
		if len(built) == 0 {
			break // lines 12–13: no more frequent subgraphs of size k
		}
		res.Levels = k
		m.emit(res, built, k)
		level = built
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

// addition is one candidate instance for the next Apriori level: the
// canonical pattern hash, the embedding's key (for the merge's dedup) and
// the embedding by reference — parent, a current-level instance shared by
// every addition grown from it, plus the node nb it grows by. Only
// additions that survive filterFrequent are built into an Instance.
// Workers emit additions in deterministic per-group order; the level loop
// replays them in sorted group order to apply dedup and the instance cap.
type addition struct {
	h, key uint64
	parent Instance
	nb     *ir.GraphNode
}

// extent returns the lowest member ID of parent ∪ {nb} and its ID span.
func (a addition) extent() (first, span int) {
	lo, hi := a.nb.ID, a.nb.ID
	if n := len(a.parent); n > 0 {
		lo, hi = min(lo, a.parent[0].ID), max(hi, a.parent[n-1].ID)
	}
	return lo, hi - lo
}

// sortedHashes returns the level's pattern hashes in ascending order.
func sortedHashes(level map[uint64][]Instance) []uint64 {
	hs := make([]uint64, 0, len(level))
	for h := range level {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	return hs
}

// expandGroup enumerates the one-node extensions of a single pattern
// group: every (member, direction, neighbor-index) extension of the
// representative, hashed once, replayed positionally on the other
// instances and kept where the replay has the representative's form. It
// is pure with respect to shared state and does no dedup: an instance
// emitted twice is dropped by the merge. The hasher and two scratch
// Instances (the representative's extension and a replay) are private to
// the call, so the only allocation per addition is its slot in the list.
func (m *miner) expandGroup(instances []Instance) []addition {
	rep := instances[0]
	hs := m.newHasher()
	var adds []addition
	ext := make(Instance, 0, len(rep)+1)
	replay := make(Instance, 0, len(rep)+1)
	for i, gn := range rep {
		for dir := 0; dir < 2; dir++ {
			for j, nb := range m.adj(dir, gn) {
				if rep.contains(nb) {
					continue
				}
				ext = extendInto(ext, rep, nb)
				h := hs.canonicalHash(ext)
				adds = append(adds, addition{h, ext.key(), rep, nb})
				// Replay the (i, dir, j) extension on the other
				// instances.
				for _, inst := range instances[1:] {
					nbs := m.adj(dir, inst[i])
					if j >= len(nbs) || inst.contains(nbs[j]) {
						continue
					}
					replay = extendInto(replay, inst, nbs[j])
					if hs.sameForm(ext, replay) {
						adds = append(adds, addition{h, replay.key(), inst, nbs[j]})
					}
				}
			}
		}
	}
	return adds
}

// adj returns gn's successors (dir 0) or predecessors (dir 1).
func (m *miner) adj(dir int, gn *ir.GraphNode) []*ir.GraphNode {
	if dir == 0 {
		return m.g.Succs(gn)
	}
	return m.g.Preds(gn)
}

// extendInto writes in ∪ {nb} into dst (ID-sorted) and returns it,
// reusing dst's backing array when it has capacity.
func extendInto(dst, in Instance, nb *ir.GraphNode) Instance {
	dst = append(dst[:0], in...)
	dst = append(dst, nb)
	p := len(dst) - 1
	for p > 0 && dst[p-1].ID > nb.ID {
		dst[p] = dst[p-1]
		p--
	}
	dst[p] = nb
	return dst
}

// filterFrequent reduces each pattern to a maximal set of pairwise
// disjoint additions (disjoint support keeps the Apriori downward-closure
// property and is exactly what folding needs), drops infrequent patterns,
// caps the level width, and builds the surviving additions — and only
// those — into the level's instances.
func (m *miner) filterFrequent(level map[uint64][]addition) map[uint64][]Instance {
	type pattern struct {
		h    uint64
		adds []addition
	}
	var kept []pattern
	claimed := make([]bool, len(m.g.Nodes))
	for h, adds := range level {
		if adds = disjointInstances(adds, claimed); len(adds) >= m.opt.MinSupport {
			kept = append(kept, pattern{h, adds})
		}
	}
	if len(kept) > m.opt.MaxPatternsPerLevel {
		slices.SortFunc(kept, func(a, b pattern) int {
			if len(a.adds) != len(b.adds) {
				return len(b.adds) - len(a.adds)
			}
			return cmp.Compare(a.h, b.h)
		})
		kept = kept[:m.opt.MaxPatternsPerLevel]
	}
	// A pattern's instances share one backing array; each is a window
	// capped at its own size, so an append to one never reaches the next.
	out := make(map[uint64][]Instance, len(kept))
	for _, p := range kept {
		k := len(p.adds[0].parent) + 1
		ins, nodes := make([]Instance, len(p.adds)), make([]*ir.GraphNode, len(p.adds)*k)
		for i, a := range p.adds {
			ins[i] = extendInto(nodes[i*k:i*k:(i+1)*k], a.parent, a.nb)
		}
		out[p.h] = ins
	}
	return out
}

// disjointInstances greedily selects a maximal subset of pairwise
// node-disjoint additions. Compact instances (smallest ID span) are
// claimed first: embeddings that bridge two repeats of a block span more
// IDs than embeddings aligned with one repeat, so this keeps the
// surviving tiling aligned with the natural block boundaries — which both
// maximizes the disjoint support and keeps pipeline stages cuttable.
// claimed is the caller's scratch, one flag per node ID; it is cleared
// here.
func disjointInstances(adds []addition, claimed []bool) []addition {
	// Stable: the incoming order is deterministic (merge order), so ties
	// on (span, first ID) must not be reshuffled.
	slices.SortStableFunc(adds, func(a, b addition) int {
		af, as := a.extent()
		bf, bs := b.extent()
		return cmp.Or(as-bs, af-bf)
	})
	clear(claimed)
	out := adds[:0]
	for _, a := range adds {
		// Sprawling embeddings (e.g. star-shaped subgraphs hanging off a
		// high-fanout tensor) are poor reuse units: they interleave with
		// many other blocks and block pipeline-stage cuts. Cap the ID
		// span at 4× the member count.
		if _, span := a.extent(); span >= 4*(len(a.parent)+1) {
			continue
		}
		if claim(claimed, a.parent, a.nb) {
			out = append(out, a)
		}
	}
	return out
}

// claim marks the nodes of in and nb in the ID-indexed claimed table and
// reports true, or leaves the table alone and reports false when any of
// them is already taken.
func claim(claimed []bool, in Instance, nb *ir.GraphNode) bool {
	if claimed[nb.ID] {
		return false
	}
	for _, gn := range in {
		if claimed[gn.ID] {
			return false
		}
	}
	for _, gn := range in {
		claimed[gn.ID] = true
	}
	claimed[nb.ID] = true
	return true
}

// emit records the frequent patterns of a level that meet MinSize, in
// ascending canonical-hash order so res.Frequent is fully deterministic
// even when the final sort's keys tie (readable signatures omit edges,
// so two distinct patterns can share one).
func (m *miner) emit(res *Result, level map[uint64][]Instance, size int) {
	if size < m.opt.MinSize {
		return
	}
	for _, h := range sortedHashes(level) {
		ins := level[h]
		res.Frequent = append(res.Frequent, &Subgraph{
			Signature: m.readableSig(ins[0]),
			Size:      size,
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
			if claim(claimed, in[1:], in[0]) {
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

	// Leftovers: group singletons by node signature so e.g. the encoder
	// and decoder embedding lookups still share one search.
	bySig := make(map[string]*Class)
	var order []string
	for _, gn := range g.Nodes {
		if claimed[gn.ID] {
			continue
		}
		sig := gn.Signature()
		c, ok := bySig[sig]
		if !ok {
			c = &Class{Signature: sig}
			bySig[sig] = c
			order = append(order, sig)
		}
		c.Instances = append(c.Instances, Instance{gn})
	}
	for _, sig := range order {
		classes = append(classes, bySig[sig])
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
