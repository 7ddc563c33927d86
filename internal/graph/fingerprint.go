package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint returns a canonical structural hash of the graph: a
// hex-encoded SHA-256 over every node's kind, layer tag and attributes,
// every tensor's kind/dtype/shape, and the dataflow topology (which node
// produced each consumed tensor, including weight sharing). Two graphs
// built independently from the same model definition hash identically, so
// the fingerprint is a stable cache key for search results; node and
// tensor names are deliberately excluded.
//
// The hash walks nodes in ID order (the construction order AddNode
// assigns), so it is deterministic across runs and processes. Every
// field is appended to one buffer as a little-endian 8-byte word (a
// string as its length, then its bytes) and the buffer is hashed once.
func (g *Graph) Fingerprint() string {
	buf := make([]byte, 0, 256*len(g.Nodes))
	writeInt := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		buf = append(buf, s...)
	}

	// Tensors are identified by pointer; number them in first-encounter
	// order so sharing (the same weight consumed by several nodes) is part
	// of the hash.
	tensorID := make(map[*Tensor]int, 2*len(g.Nodes))
	idOf := func(t *Tensor) int {
		if id, ok := tensorID[t]; ok {
			return id
		}
		id := len(tensorID)
		tensorID[t] = id
		return id
	}
	writeTensor := func(t *Tensor) {
		writeInt(int64(idOf(t)))
		writeInt(int64(t.Kind))
		writeInt(int64(t.DType))
		writeInt(int64(t.Shape.Rank()))
		for _, d := range t.Shape {
			writeInt(d)
		}
		if p := g.producer[t]; p != nil {
			writeInt(int64(p.ID))
		} else {
			writeInt(-1)
		}
	}

	var keys []string // the current node's attribute names, sorted
	writeInt(int64(len(g.Nodes)))
	for _, n := range g.Nodes {
		writeInt(int64(n.ID))
		writeInt(int64(n.Kind))
		writeStr(n.Layer)
		keys = keys[:0]
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		writeInt(int64(len(keys)))
		for _, k := range keys {
			writeStr(k)
			writeInt(n.Attrs[k])
		}
		writeInt(int64(len(n.Inputs)))
		for _, t := range n.Inputs {
			writeTensor(t)
		}
		writeInt(int64(len(n.Outputs)))
		for _, t := range n.Outputs {
			writeTensor(t)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
