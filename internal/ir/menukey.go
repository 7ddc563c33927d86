package ir

import (
	"slices"
	"sync"

	"tapas/internal/graph"
)

// menuCell is PatternsFor's memo for the nodes of one grouped graph that
// share a menu key: one menu per W, built from the cell's first node.
type menuCell struct {
	key   []uint64
	first *GraphNode
	next  *menuCell // the next cell whose key hashes alike

	mu    sync.Mutex
	menus map[int][]*Pattern // by W
}

// internMenus points every node at the memo cell of its menu key, the way
// mining interns its labels: a 64-bit hash of the key, confirmed word by
// word, with a collision getting a cell of its own.
func internMenus(nodes []*GraphNode) {
	byHash := make(map[uint64]*menuCell)
	var kw keyWriter
	for _, gn := range nodes {
		kw.write(gn)
		h := uint64(14695981039346656037) // FNV-1a, a word at a time
		for _, v := range kw.words {
			h = (h ^ v) * 1099511628211
		}
		c := byHash[h]
		for c != nil && !slices.Equal(c.key, kw.words) {
			c = c.next
		}
		if c == nil {
			c = &menuCell{key: slices.Clone(kw.words), first: gn, next: byHash[h], menus: make(map[int][]*Pattern)}
			byHash[h] = c
		}
		gn.menu = c
	}
}

// keyWriter writes a node's menu key: every field the pattern generators
// read, so nodes with equal keys have equal menus. The key is the node's
// kind; the positions in Ops of its anchor, Pre and Post ops; each op's
// kind, attributes, inputs and outputs; and the node's InTensors,
// OutTensors and Weights. A tensor is its index in order of first
// appearance in the node, followed at that first appearance by its kind,
// dtype and shape: the generators compare weights by identity, so one
// weight used twice must not key like two weights of one shape. Every
// count precedes what it counts, so distinct nodes write distinct keys.
// The slices are reused from node to node.
type keyWriter struct {
	words []uint64
	seen  []*graph.Tensor
	attrs []string
}

func (k *keyWriter) write(gn *GraphNode) {
	k.words, k.seen = k.words[:0], k.seen[:0]
	k.add(uint64(gn.Kind), uint64(slices.Index(gn.Ops, gn.Anchor)+1))
	for _, ops := range [2][]*graph.Node{gn.Pre, gn.Post} {
		k.add(uint64(len(ops)))
		for _, op := range ops {
			k.add(uint64(slices.Index(gn.Ops, op) + 1))
		}
	}
	k.add(uint64(len(gn.Ops)))
	for _, op := range gn.Ops {
		k.attrs = k.attrs[:0]
		for a := range op.Attrs {
			k.attrs = append(k.attrs, a)
		}
		slices.Sort(k.attrs)
		k.add(uint64(op.Kind), uint64(len(k.attrs)))
		for _, a := range k.attrs {
			k.add(uint64(len(a))) // then the name, eight bytes to a word
			for i := 0; i < len(a); i += 8 {
				var w uint64
				for _, c := range []byte(a[i:min(i+8, len(a))]) {
					w = w<<8 | uint64(c)
				}
				k.add(w)
			}
			k.add(uint64(op.Attrs[a]))
		}
		k.tensors(op.Inputs)
		k.tensors(op.Outputs)
	}
	k.tensors(gn.InTensors)
	k.tensors(gn.OutTensors)
	k.tensors(gn.Weights)
}

func (k *keyWriter) add(v ...uint64) { k.words = append(k.words, v...) }

func (k *keyWriter) tensors(ts []*graph.Tensor) {
	k.add(uint64(len(ts)))
	for _, t := range ts {
		if i := slices.Index(k.seen, t); i >= 0 {
			k.add(uint64(i))
			continue
		}
		k.add(uint64(len(k.seen)), uint64(t.Kind), uint64(t.DType), uint64(len(t.Shape)))
		for _, d := range t.Shape {
			k.add(uint64(d))
		}
		k.seen = append(k.seen, t)
	}
}
