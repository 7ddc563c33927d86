// Package strategy implements TAPAS's Strategy Exploration phase (Figure
// 2, steps ③–⑤): enumerating ShardingPattern combinations per unique
// subgraph with a decision-tree search that early-stops on invalid prefix
// assignments, validating candidates with the symbolic shape check,
// scoring survivors with the communication-based cost model, and
// assembling per-subgraph winners into one global parallel strategy.
package strategy

import (
	"fmt"
	"sort"

	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
)

// Strategy is a complete parallel plan: one ShardingPattern per GraphNode,
// plus the resharding collectives inserted at incompatible-but-recoverable
// boundaries. New builds every Strategy.
type Strategy struct {
	Graph *ir.GNGraph
	W     int
	// Assign is indexed by GraphNode.ID, a node's topological position:
	// Assign[i] is the pattern of Graph.Nodes[i]. A nil entry means
	// "unassigned"; it appears only in the partial assignments inside
	// assembly, never in a Strategy New returns.
	Assign  []*ir.Pattern
	Reshard []comm.Event
	Cost    cost.Breakdown

	// MemPerDev estimates per-device bytes: sharded weights, gradients,
	// two Adam moments, and stored activations.
	MemPerDev int64
}

// New builds the Strategy for a complete assignment (indexed by
// GraphNode.ID) at w workers: it runs the global static analysis,
// records the resharding events and the per-device memory, and prices
// the plan under model. The error is Validate's.
func New(g *ir.GNGraph, assign []*ir.Pattern, w int, allowReshard bool, model *cost.Model) (*Strategy, error) {
	events, err := Validate(g, assign, w, allowReshard)
	if err != nil {
		return nil, err
	}
	return &Strategy{
		Graph:     g,
		W:         w,
		Assign:    assign,
		Reshard:   events,
		Cost:      model.StrategyCost(assign, events),
		MemPerDev: MemoryPerDevice(g, assign),
	}, nil
}

// Describe summarizes the plan as pattern-name counts, e.g.
// "column-parallel×48 data-parallel×12 ...", most frequent first.
func (s *Strategy) Describe() string {
	counts := map[string]int{}
	for _, p := range s.Assign {
		counts[p.Name]++
	}
	type kv struct {
		name string
		n    int
	}
	var all []kv
	for n, c := range counts {
		all = append(all, kv{n, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].name < all[j].name
	})
	out := ""
	for i, e := range all {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s×%d", e.name, e.n)
	}
	return out
}

// appendEdge applies the symbolic shape check to one GraphNode boundary
// — the producer's output layout against the consumer's required layout
// — and appends the reshard event it needs to dst. A replicated output
// can always be sliced locally into any split; a split output can be
// re-assembled into a replicated input with an all-gather when
// resharding is allowed; two different splits are incompatible —
// exactly the early-stop condition of Figure 4. It is the one copy of
// the per-edge arithmetic: the enumerator, assembly and the validator
// all reach it.
func appendEdge(dst []comm.Event, out, need ir.ShardSpec, tensorBytes int64, w int, allowReshard bool) ([]comm.Event, bool) {
	if out.Equal(need) {
		return dst, true
	}
	if out.IsReplicated() && !need.IsReplicated() {
		return dst, true // local slice, no communication
	}
	if !allowReshard {
		return dst, false
	}
	if !out.IsReplicated() && need.IsReplicated() {
		return append(dst, comm.Event{Kind: comm.AllGather, Bytes: tensorBytes, W: w}), true
	}
	return dst, false
}

// needFor returns the layout pattern p requires of an input edge: its
// primary input layout, or the secondary one.
func needFor(p *ir.Pattern, primary bool) ir.ShardSpec {
	if primary {
		return p.In
	}
	return p.In2Spec()
}

// edgeTensor finds the boundary tensor carried by the edge from producer
// p to consumer c, and whether it is c's primary input.
func edgeTensor(g *ir.GNGraph, p, c *ir.GraphNode) (bytes int64, primary bool) {
	for i, t := range c.InTensors {
		if prod := g.Src.Producer(t); prod != nil && g.NodeOf(prod) == p {
			return t.Bytes(), i == 0
		}
	}
	return 0, true
}

// CheckEdge validates one GraphNode edge under a candidate assignment,
// returning any resharding events needed. Exported for the baseline
// planners, which construct assignments outside this package.
func CheckEdge(g *ir.GNGraph, from, to *ir.GraphNode, pf, pt *ir.Pattern, w int, allowReshard bool) ([]comm.Event, bool) {
	return checkEdge(g, from, to, pf, pt, w, allowReshard)
}

// checkEdge validates one GraphNode edge under a candidate assignment,
// returning any resharding events needed.
func checkEdge(g *ir.GNGraph, from, to *ir.GraphNode, pf, pt *ir.Pattern, w int, allowReshard bool) ([]comm.Event, bool) {
	bytes, primary := edgeTensor(g, from, to)
	return appendEdge(nil, pf.Out, needFor(pt, primary), bytes, w, allowReshard)
}

// Validate runs the full static analysis over a strategy: every edge must
// be compatible (collecting reshard events), and weights shared between
// GraphNodes must agree on their sharding. assign has one entry per
// node, indexed by GraphNode.ID; a nil entry is an unassigned node. It
// returns the reshard events and an error describing the first
// violation.
func Validate(g *ir.GNGraph, assign []*ir.Pattern, w int, allowReshard bool) ([]comm.Event, error) {
	var events []comm.Event
	for _, gn := range g.Nodes {
		pt := assign[gn.ID]
		if pt == nil {
			return nil, fmt.Errorf("strategy: node %v has no pattern", gn)
		}
		for _, pred := range g.Preds(gn) {
			pf := assign[pred.ID]
			if pf == nil {
				return nil, fmt.Errorf("strategy: predecessor %v unassigned", pred)
			}
			ev, ok := checkEdge(g, pred, gn, pf, pt, w, allowReshard)
			if !ok {
				return nil, fmt.Errorf("strategy: edge %v(%s:%v) → %v(%s:%v) incompatible",
					pred, pf.Name, pf.Out, gn, pt.Name, pt.In)
			}
			events = append(events, ev...)
		}
	}
	// Shared-weight consistency: a tensor reused by several GraphNodes
	// (e.g. tied embeddings) must be sharded identically everywhere.
	type wspec struct {
		spec ir.ShardSpec
		gn   *ir.GraphNode
	}
	seen := make(map[*graph.Tensor]wspec, numWeights(g))
	for _, gn := range g.Nodes {
		p := assign[gn.ID]
		for i, wt := range gn.Weights {
			if prev, ok := seen[wt]; ok {
				if !prev.spec.Equal(p.WeightSpecs[i]) {
					return nil, fmt.Errorf("strategy: weight %q sharded %v by %v but %v by %v",
						wt.Name, prev.spec, prev.gn, p.WeightSpecs[i], gn)
				}
			} else {
				seen[wt] = wspec{p.WeightSpecs[i], gn}
			}
		}
	}
	return events, nil
}

// MemoryPerDevice estimates the per-device training footprint of an
// assignment: weights + gradients + two Adam moments (4× sharded weight
// bytes), stored activations, and the staging buffers gradient-bucketing
// frameworks allocate for reduction collectives — the "memory buffers …
// for caching gradients" the paper observes pushing wide-classifier DP
// into OOM.
//
// assign is indexed by GraphNode.ID and nil entries are skipped. Nodes
// are walked in ascending ID, so a weight shared by several nodes is
// charged to its lowest-ID assigned user whatever the users' patterns —
// the rule EnumerateInstance applies by instance position.
func MemoryPerDevice(g *ir.GNGraph, assign []*ir.Pattern) int64 {
	var mem int64
	seen := make(map[*graph.Tensor]bool, numWeights(g))
	for _, gn := range g.Nodes {
		if p := assign[gn.ID]; p != nil {
			mem += nodeMem(p, ownsWeights(gn, seen))
		}
	}
	return mem
}

// numWeights counts the weight slots of g's nodes, a shared weight once
// per node that reads it: the size that keeps a map keyed by weight from
// growing.
func numWeights(g *ir.GNGraph) int {
	n := 0
	for _, gn := range g.Nodes {
		n += len(gn.Weights)
	}
	return n
}

// ownsWeights reports whether gn's weights count toward memory, given
// the weight tensors seen at earlier nodes, and marks gn's as seen. A
// node whose every weight an earlier node already counted adds none.
func ownsWeights(gn *ir.GraphNode, seen map[*graph.Tensor]bool) bool {
	owns := len(gn.Weights) == 0
	for _, wt := range gn.Weights {
		if !seen[wt] {
			seen[wt] = true
			owns = true
		}
	}
	return owns
}

// nodeMem is one node's term of MemoryPerDevice under pattern p; owns
// says whether the node's weights count (see ownsWeights).
func nodeMem(p *ir.Pattern, owns bool) int64 {
	mem := p.OutBytesPerDev
	if owns {
		mem += 4 * p.WeightBytesPerDev
	}
	for _, e := range p.BwdComm {
		if e.Kind == comm.AllReduce || e.Kind == comm.ReduceScatter {
			mem += e.Bytes
		}
	}
	return mem
}
