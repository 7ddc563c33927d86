package graph

import "fmt"

// Node is one operator instance in the graph. A node consumes zero or more
// tensors (activations produced by other nodes, plus weights/constants it
// owns) and produces one or more activation tensors.
type Node struct {
	ID      int // the node's index in its graph's Nodes, set by AddNode
	Name    string
	Kind    OpKind
	Layer   string // layer tag, e.g. "encoder.3"; used for L in G(E,V) stats
	Inputs  []*Tensor
	Outputs []*Tensor
	Attrs   map[string]int64
}

// Attr returns the named attribute and whether it is present.
func (n *Node) Attr(key string) (int64, bool) {
	v, ok := n.Attrs[key]
	return v, ok
}

// AttrOr returns the named attribute or def when absent.
func (n *Node) AttrOr(key string, def int64) int64 {
	if v, ok := n.Attrs[key]; ok {
		return v
	}
	return def
}

// Weights returns the trainable-weight inputs of the node.
func (n *Node) Weights() []*Tensor {
	var ws []*Tensor
	for _, t := range n.Inputs {
		if t.Kind == Weight {
			ws = append(ws, t)
		}
	}
	return ws
}

// ForwardFLOPs returns the forward-pass FLOP count of the node.
func (n *Node) ForwardFLOPs() int64 { return forwardFLOPs(n) }

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)@%s", n.Name, n.Kind, n.Layer)
}

// Graph is a directed acyclic computational graph. Edges are implicit: an
// edge u→v exists for every activation tensor produced by u and consumed by
// v, matching the paper's formulation G(E,V) where edges carry activation
// (forward) or gradient (backward) tensors.
type Graph struct {
	Name  string
	Nodes []*Node

	producer  map[*Tensor]*Node
	consumers map[*Tensor][]*Node
	nextID    int
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{
		Name:      name,
		producer:  make(map[*Tensor]*Node),
		consumers: make(map[*Tensor][]*Node),
	}
}

// AddNode appends a node, assigns its ID, and indexes its dataflow.
// It panics if an output tensor already has a producer.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	for _, t := range n.Outputs {
		if p, ok := g.producer[t]; ok {
			panic(fmt.Sprintf("graph: tensor %q already produced by %q", t.Name, p.Name))
		}
		g.producer[t] = n
	}
	for _, t := range n.Inputs {
		g.consumers[t] = append(g.consumers[t], n)
	}
	return n
}

// Producer returns the node producing t, or nil for graph inputs, weights
// and constants.
func (g *Graph) Producer(t *Tensor) *Node { return g.producer[t] }

// Consumers returns the nodes consuming t.
func (g *Graph) Consumers(t *Tensor) []*Node { return g.consumers[t] }

// NumEdges returns |E|: the number of producer→consumer activation links.
func (g *Graph) NumEdges() int {
	e := 0
	for _, n := range g.Nodes {
		for _, t := range n.Outputs {
			e += len(g.consumers[t])
		}
	}
	return e
}

// TopoSort returns the nodes in a topological order: Kahn's algorithm,
// seeded in ID order, visiting each node's distinct successors in the
// order its outputs' Consumers lists name them. It returns an error if
// the graph has a cycle (which would indicate a builder bug). In-degrees
// and the distinct-neighbour marks are slices indexed by Node.ID, so the
// sort makes no map and no per-node neighbour list.
func (g *Graph) TopoSort() ([]*Node, error) {
	for i, nd := range g.Nodes {
		if nd.ID != i {
			return nil, fmt.Errorf("graph %q: node %q has ID %d at index %d", g.Name, nd.Name, nd.ID, i)
		}
	}
	n := len(g.Nodes)
	indeg := make([]int32, n)
	// mark[v] is u+1 while node u's distinct neighbours are walked and v
	// is one of them already counted.
	mark := make([]int32, n)
	for i, nd := range g.Nodes {
		for _, t := range nd.Inputs {
			if p := g.producer[t]; p != nil && mark[p.ID] != int32(i+1) {
				mark[p.ID] = int32(i + 1)
				indeg[i]++
			}
		}
	}
	clear(mark)

	// order doubles as the FIFO queue: nodes are appended as their
	// in-degree reaches zero and popped from head.
	order := make([]*Node, 0, n)
	for i, nd := range g.Nodes {
		if indeg[i] == 0 {
			order = append(order, nd)
		}
	}
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, t := range u.Outputs {
			for _, s := range g.consumers[t] {
				if mark[s.ID] == int32(u.ID+1) {
					continue
				}
				mark[s.ID] = int32(u.ID + 1)
				if indeg[s.ID]--; indeg[s.ID] == 0 {
					order = append(order, s)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph %q: cycle detected (%d of %d nodes ordered)", g.Name, len(order), n)
	}
	return order, nil
}

// Validate checks structural invariants: valid shapes, unique producers
// (enforced at AddNode), acyclicity, and that every activation input of a
// node is produced inside the graph or is a graph Input.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		for _, t := range append(append([]*Tensor{}, n.Inputs...), n.Outputs...) {
			if !t.Shape.Valid() {
				return fmt.Errorf("graph %q: node %q tensor %q has invalid shape %v", g.Name, n.Name, t.Name, t.Shape)
			}
		}
		for _, t := range n.Inputs {
			if t.Kind == Activation && g.producer[t] == nil {
				return fmt.Errorf("graph %q: node %q consumes activation %q with no producer", g.Name, n.Name, t.Name)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Stats summarizes the graph in the paper's G(E,V) terms.
type Stats struct {
	V           int   // number of operator vertices
	E           int   // number of dataflow edges
	L           int   // number of distinct layer tags
	Params      int64 // trainable parameter count
	WeightBytes int64 // bytes of trainable weights
	FwdFLOPs    int64 // forward-pass FLOPs for one mini-batch
}

// Stats computes graph-level statistics. Weight tensors shared by several
// nodes are counted once.
func (g *Graph) Stats() Stats {
	s := Stats{V: len(g.Nodes), E: g.NumEdges()}
	layers := make(map[string]bool)
	seenW := make(map[*Tensor]bool)
	for _, n := range g.Nodes {
		if n.Layer != "" {
			layers[n.Layer] = true
		}
		s.FwdFLOPs += n.ForwardFLOPs()
		for _, w := range n.Weights() {
			if !seenW[w] {
				seenW[w] = true
				s.Params += w.Shape.NumElements()
				s.WeightBytes += w.Bytes()
			}
		}
	}
	s.L = len(layers)
	return s
}

// Layers returns the distinct layer tags in first-appearance order.
func (g *Graph) Layers() []string {
	var order []string
	seen := make(map[string]bool)
	for _, n := range g.Nodes {
		if n.Layer != "" && !seen[n.Layer] {
			seen[n.Layer] = true
			order = append(order, n.Layer)
		}
	}
	return order
}

// NodesInLayer returns the nodes tagged with the given layer, in ID order.
func (g *Graph) NodesInLayer(layer string) []*Node {
	var ns []*Node
	for _, n := range g.Nodes {
		if n.Layer == layer {
			ns = append(ns, n)
		}
	}
	return ns
}
