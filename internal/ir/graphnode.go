package ir

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"tapas/internal/graph"
)

// NodeKind classifies a GraphNode by its anchor operator, which determines
// the set of ShardingPatterns available to it.
type NodeKind int

const (
	// KGlue groups weight-free plumbing (residual adds, layer norms,
	// attention batched matmuls, pooling, losses). Glue nodes have no
	// sharding choices of their own — they propagate their input layout.
	KGlue NodeKind = iota
	// KDense is MatMul(+BiasAdd+activation): the paper's Figure-3 example.
	KDense
	// KConv is Conv2D/ConvTranspose2D(+BatchNorm+ReLU).
	KConv
	// KEmbedding is an embedding-table gather.
	KEmbedding
	// KExpert is a batched matmul against a 3-D (E,·,·) expert weight.
	KExpert
	// KRouter is the MoE gate projection.
	KRouter
	// KDispatch routes tokens to experts.
	KDispatch
	// KCombine merges expert outputs back to token order.
	KCombine
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KGlue:
		return "Glue"
	case KDense:
		return "Dense"
	case KConv:
		return "Conv"
	case KEmbedding:
		return "Embedding"
	case KExpert:
		return "Expert"
	case KRouter:
		return "Router"
	case KDispatch:
		return "Dispatch"
	case KCombine:
		return "Combine"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// GraphNode is the paper's basic unit for deriving parallel strategies: "a
// container of operators collectively used together". Grouping matters
// because sharding decisions are interrelated within a layer — the anchor's
// split determines the layout flowing through the absorbed prefix/suffix
// operators. The nodes of one grouped graph that the pattern generators
// cannot tell apart share one pattern menu per W (see PatternsFor).
type GraphNode struct {
	ID     int
	Kind   NodeKind
	Layer  string
	Anchor *graph.Node   // weight-bearing op; nil for glue nodes
	Ops    []*graph.Node // members in topological order

	// Pre are absorbed unary operators between the boundary input and the
	// anchor (e.g. LayerNorm, Reshape); Post are absorbed unary operators
	// after the anchor. Both are subsets of Ops.
	Pre, Post []*graph.Node

	// InTensors are activation tensors consumed by members but produced
	// outside; OutTensors are tensors produced by members and consumed
	// outside (or graph-terminal).
	InTensors, OutTensors []*graph.Tensor
	Weights               []*graph.Tensor

	sigMu sync.Mutex // guards sig
	sig   string

	// menu is PatternsFor's memo cell, shared with every node of the
	// graph that has the same menu key (see internMenus). It dies with
	// the graph, so long-running services keep no menus of graphs
	// already searched.
	menu *menuCell
}

// InShape returns the primary boundary input shape (zero Shape if the node
// consumes only graph inputs).
func (gn *GraphNode) InShape() graph.Shape {
	if len(gn.InTensors) == 0 {
		return nil
	}
	return gn.InTensors[0].Shape
}

// OutShape returns the primary boundary output shape.
func (gn *GraphNode) OutShape() graph.Shape {
	if len(gn.OutTensors) == 0 {
		return nil
	}
	return gn.OutTensors[0].Shape
}

// ForwardFLOPs sums member forward FLOPs.
func (gn *GraphNode) ForwardFLOPs() int64 {
	var f int64
	for _, op := range gn.Ops {
		f += op.ForwardFLOPs()
	}
	return f
}

// WeightBytes sums trainable weight bytes of the node.
func (gn *GraphNode) WeightBytes() int64 {
	var b int64
	for _, w := range gn.Weights {
		b += w.Bytes()
	}
	return b
}

// OutBytes sums boundary output tensor bytes (the activations the node
// must keep for the backward pass).
func (gn *GraphNode) OutBytes() int64 {
	var b int64
	for _, t := range gn.OutTensors {
		b += t.Bytes()
	}
	return b
}

// Signature returns a canonical structural description of the node: kind,
// member operator kinds, weight shapes and boundary shapes. Two GraphNodes
// with equal signatures are interchangeable for strategy reuse — the core
// of the paper's Observation #2. Mining compares the same fields without
// rendering this string (it interns a structural label per node) and
// renders it only for the signatures of the patterns and classes it emits.
func (gn *GraphNode) Signature() string {
	gn.sigMu.Lock()
	defer gn.sigMu.Unlock()
	if gn.sig != "" {
		return gn.sig
	}
	var b strings.Builder
	b.WriteString(gn.Kind.String())
	b.WriteByte('[')
	for i, op := range gn.Ops {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(op.Kind.String())
	}
	b.WriteByte(']')
	for _, w := range gn.Weights {
		b.WriteString("w")
		b.WriteString(w.Shape.String())
	}
	if in := gn.InShape(); in != nil {
		b.WriteString("in")
		b.WriteString(in.String())
	}
	if out := gn.OutShape(); out != nil {
		b.WriteString("out")
		b.WriteString(out.String())
	}
	gn.sig = b.String()
	return gn.sig
}

// String implements fmt.Stringer: "GN<id>:<kind>(<name>)", where name
// is the anchor's, else the first member's, else the kind.
func (gn *GraphNode) String() string { return string(gn.AppendName(nil)) }

// AppendName appends gn.String() to b.
func (gn *GraphNode) AppendName(b []byte) []byte {
	kind := gn.Kind.String()
	name := kind
	if gn.Anchor != nil {
		name = gn.Anchor.Name
	} else if len(gn.Ops) > 0 {
		name = gn.Ops[0].Name
	}
	b = strconv.AppendInt(append(b, "GN"...), int64(gn.ID), 10)
	b = append(append(append(b, ':'), kind...), '(')
	return append(append(b, name...), ')')
}

// GNGraph is the GraphNode-level view of a computational graph — the
// TAPAS IR the mining and search stages operate on (Step ① of Figure 2).
type GNGraph struct {
	Src   *graph.Graph
	Nodes []*GraphNode

	succs, preds [][]*GraphNode // adjacency, indexed by GraphNode.ID
	owner        []*GraphNode   // indexed by graph.Node.ID
}

// NodeOf returns the GraphNode containing the given operator, or nil
// when op is not an operator of g.Src.
func (g *GNGraph) NodeOf(op *graph.Node) *GraphNode {
	if op.ID < 0 || op.ID >= len(g.owner) || g.Src.Nodes[op.ID] != op {
		return nil
	}
	return g.owner[op.ID]
}

// Succs returns the GraphNodes consuming outputs of gn, in ID order.
func (g *GNGraph) Succs(gn *GraphNode) []*GraphNode { return g.succs[gn.ID] }

// Preds returns the GraphNodes producing inputs of gn, each once, in the
// order gn's InTensors first name them.
func (g *GNGraph) Preds(gn *GraphNode) []*GraphNode { return g.preds[gn.ID] }

// NumEdges returns the number of GraphNode-level dataflow edges.
func (g *GNGraph) NumEdges() int {
	e := 0
	for _, ss := range g.succs {
		e += len(ss)
	}
	return e
}

// anchorKind reports whether an operator starts a weight-bearing
// GraphNode, and the kind it implies.
func anchorKind(n *graph.Node) (NodeKind, bool) {
	switch n.Kind {
	case graph.OpMatMul:
		return KDense, true
	case graph.OpConv2D, graph.OpConvTranspose2D:
		return KConv, true
	case graph.OpEmbedding:
		return KEmbedding, true
	case graph.OpGate:
		return KRouter, true
	case graph.OpDispatch:
		return KDispatch, true
	case graph.OpCombine:
		return KCombine, true
	case graph.OpBatchMatMul:
		if n.AttrOr("expert", 0) == 1 {
			return KExpert, true
		}
		return KGlue, false
	default:
		return KGlue, false
	}
}

// absorbablePost lists operator kinds a GraphNode may absorb after its
// anchor: unary, weight-free-or-bias-only, layout-transparent under
// PropagateSpec.
func absorbablePost(k graph.OpKind) bool {
	switch k {
	case graph.OpBiasAdd, graph.OpReLU, graph.OpGeLU, graph.OpSigmoid,
		graph.OpTanh, graph.OpDropout, graph.OpIdentity, graph.OpBatchNorm,
		graph.OpSoftmax, graph.OpReshape:
		return true
	default:
		return false
	}
}

// absorbablePre lists operator kinds absorbed before an anchor.
func absorbablePre(k graph.OpKind) bool {
	return k == graph.OpLayerNorm || k == graph.OpReshape
}

// Group converts an operator graph into the GraphNode graph (Step ① in
// Figure 2). Weight-bearing anchors absorb adjacent unary plumbing; the
// remaining operators become glue nodes. Grouping requires no expert
// annotation — it is driven purely by operator kinds and fan-out. Its
// per-operator and per-node state is held in slices indexed by the dense
// graph.Node.ID and GraphNode.ID, not in maps keyed by pointer, and each
// node's lists (members, tensors, neighbours) are capped windows of a
// few shared arrays rather than one allocation per list.
func Group(src *graph.Graph) (*GNGraph, error) {
	order, err := src.TopoSort()
	if err != nil {
		return nil, err
	}

	// An operator is assigned once owner names its GraphNode. Every
	// operator joins exactly one GraphNode, so the member lists fill one
	// array of len(src.Nodes) operators exactly.
	g := &GNGraph{Src: src, owner: make([]*GraphNode, len(src.Nodes))}
	assigned := func(n *graph.Node) bool { return g.owner[n.ID] != nil }
	ops := make([]*graph.Node, 0, len(src.Nodes))
	// add records gn with the members pre, head, post in that order.
	add := func(gn *GraphNode, pre []*graph.Node, head *graph.Node, post []*graph.Node) {
		at := len(ops)
		ops = append(append(append(ops, pre...), head), post...)
		gn.Ops = ops[at:len(ops):len(ops)]
		if len(pre) > 0 {
			gn.Pre = gn.Ops[:len(pre):len(pre)]
		}
		if len(post) > 0 {
			gn.Post = gn.Ops[len(pre)+1:]
		}
		for _, op := range gn.Ops {
			g.owner[op.ID] = gn
		}
		g.Nodes = append(g.Nodes, gn)
	}

	singleConsumer := func(n *graph.Node) (*graph.Node, bool) {
		if len(n.Outputs) != 1 {
			return nil, false
		}
		cs := src.Consumers(n.Outputs[0])
		if len(cs) != 1 {
			return nil, false
		}
		return cs[0], true
	}

	// Pass 1: anchors in topological order, absorbing backward then
	// forward. pre and post are scratch: add copies them.
	var pre, post []*graph.Node
	for _, n := range order {
		if assigned(n) {
			continue
		}
		kind, isAnchor := anchorKind(n)
		if !isAnchor {
			continue
		}

		// Absorb backward: unary prefix ops feeding only this chain,
		// collected nearest first.
		pre = pre[:0]
		cur := n
		for {
			p := src.Producer(primaryInput(cur))
			if p == nil || assigned(p) || !absorbablePre(p.Kind) {
				break
			}
			if c, ok := singleConsumer(p); !ok || c != cur {
				break
			}
			pre = append(pre, p)
			cur = p
		}
		slices.Reverse(pre)

		// Absorb forward: unary suffix chain.
		post = post[:0]
		tail := n
		for {
			c, ok := singleConsumer(tail)
			if !ok || assigned(c) || !absorbablePost(c.Kind) {
				break
			}
			// The successor must not consume other activations.
			extra := false
			for _, t := range c.Inputs {
				if (t.Kind == graph.Activation || t.Kind == graph.Input) && t != tail.Outputs[0] {
					extra = true
				}
			}
			if extra {
				break
			}
			post = append(post, c)
			tail = c
		}
		add(&GraphNode{Kind: kind, Layer: n.Layer, Anchor: n}, pre, n, post)
	}

	// Pass 2: remaining operators become glue nodes, absorbing forward
	// through still-unassigned unary suffixes.
	for _, n := range order {
		if assigned(n) {
			continue
		}
		post = post[:0]
		tail := n
		for {
			c, ok := singleConsumer(tail)
			if !ok || assigned(c) || !absorbablePost(c.Kind) {
				break
			}
			if _, isAnchor := anchorKind(c); isAnchor {
				break
			}
			extra := false
			for _, t := range c.Inputs {
				if (t.Kind == graph.Activation || t.Kind == graph.Input) && t != tail.Outputs[0] {
					extra = true
				}
			}
			if extra {
				break
			}
			post = append(post, c)
			tail = c
		}
		add(&GraphNode{Kind: KGlue, Layer: n.Layer}, nil, n, post)
	}

	// Sort GraphNodes by the topological position of their first op and
	// assign IDs. Each operator is in one GraphNode, so first ops'
	// positions are distinct and the order is total.
	pos := make([]int, len(src.Nodes))
	for i, n := range order {
		pos[n.ID] = i
	}
	slices.SortFunc(g.Nodes, func(a, b *GraphNode) int {
		return cmp.Compare(pos[a.Ops[0].ID], pos[b.Ops[0].ID])
	})
	for i, gn := range g.Nodes {
		gn.ID = i
	}

	// Compute boundaries and weights. An operator is a member of gn
	// exactly when owner names gn; a boundary input is kept once, and a
	// node has few, so the list itself is the dedup. Weights and
	// boundary inputs come from operator inputs and boundary outputs from
	// operator outputs, so one array of every input and output holds
	// all three kinds of list.
	nt := 0
	for _, n := range src.Nodes {
		nt += len(n.Inputs) + len(n.Outputs)
	}
	tensors := make([]*graph.Tensor, 0, nt)
	window := func(ts []*graph.Tensor) []*graph.Tensor {
		if len(ts) == 0 {
			return nil
		}
		at := len(tensors)
		tensors = append(tensors, ts...)
		return tensors[at:len(tensors):len(tensors)]
	}
	var ws, ins, outs []*graph.Tensor
	nIn := 0 // boundary inputs: a bound on the GraphNode-level edges
	for _, gn := range g.Nodes {
		member := func(n *graph.Node) bool { return g.owner[n.ID] == gn }
		ws, ins, outs = ws[:0], ins[:0], outs[:0]
		for _, op := range gn.Ops {
			for _, t := range op.Inputs {
				switch t.Kind {
				case graph.Weight:
					ws = append(ws, t)
				case graph.Activation, graph.Input:
					p := src.Producer(t)
					if (p == nil || !member(p)) && !slices.Contains(ins, t) {
						ins = append(ins, t)
					}
				}
			}
			for _, t := range op.Outputs {
				external := len(src.Consumers(t)) == 0
				for _, c := range src.Consumers(t) {
					if !member(c) {
						external = true
					}
				}
				if external {
					outs = append(outs, t)
				}
			}
		}
		gn.Weights, gn.InTensors, gn.OutTensors = window(ws), window(ins), window(outs)
		nIn += len(ins)
	}

	// GraphNode-level edges, found by target ID and then the target's
	// InTensors: each target's predecessors are one run of that order,
	// and a counting sort by source gives each source's successors in
	// target ID order. edgeSeen[from.ID] is gn.ID+1 once from → gn is
	// found.
	g.succs = make([][]*GraphNode, len(g.Nodes))
	g.preds = make([][]*GraphNode, len(g.Nodes))
	edgeSeen := make([]int, len(g.Nodes))
	succOff := make([]int, len(g.Nodes)+1)
	preds := make([]*GraphNode, 0, nIn)
	for _, gn := range g.Nodes {
		at := len(preds)
		for _, t := range gn.InTensors {
			p := src.Producer(t)
			if p == nil {
				continue
			}
			from := g.owner[p.ID]
			if from != gn && edgeSeen[from.ID] != gn.ID+1 {
				edgeSeen[from.ID] = gn.ID + 1
				preds = append(preds, from)
				succOff[from.ID+1]++
			}
		}
		if len(preds) > at {
			g.preds[gn.ID] = preds[at:len(preds):len(preds)]
		}
	}
	for v := range g.Nodes {
		succOff[v+1] += succOff[v]
	}
	succs := make([]*GraphNode, len(preds))
	next := slices.Clone(succOff[:len(g.Nodes)])
	for _, gn := range g.Nodes {
		for _, from := range g.preds[gn.ID] {
			succs[next[from.ID]] = gn
			next[from.ID]++
		}
	}
	for v := range g.Nodes {
		if lo, hi := succOff[v], succOff[v+1]; hi > lo {
			g.succs[v] = succs[lo:hi:hi]
		}
	}
	internMenus(g.Nodes)
	return g, nil
}

// TopoOrder returns the GraphNodes in dependency order (they are already
// sorted by construction).
func (g *GNGraph) TopoOrder() []*GraphNode { return g.Nodes }

// Stats mirrors graph.Stats at the GraphNode granularity, demonstrating
// the paper's C× search-space reduction from converting the operator graph
// to the TAPAS graph.
func (g *GNGraph) Stats() (v, e int) { return len(g.Nodes), g.NumEdges() }
