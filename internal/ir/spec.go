// Package ir implements the TAPAS intermediate representation: GraphNodes
// (groups of operators that are collectively used together), sharding
// specifications with symbolic propagation rules, and the ShardingPattern
// registry that enumerates the parallel implementations of each GraphNode
// kind, each with its Split-Replica-Communication (SRC) expression.
package ir

import (
	"fmt"

	"tapas/internal/graph"
)

// ShardSpec describes how an activation tensor is laid out across the
// tensor-parallel group: either replicated on every device or split along
// one axis. Data parallelism is the special case Split(0) — "the tensor
// shards on the batch dimension".
type ShardSpec struct {
	// Axis is the split axis, or -1 for a fully replicated layout.
	Axis int
}

// Replicated returns the replicated layout.
func Replicated() ShardSpec { return ShardSpec{Axis: -1} }

// Split returns the layout sharded along the given axis.
func Split(axis int) ShardSpec { return ShardSpec{Axis: axis} }

// IsReplicated reports whether the layout is replicated.
func (s ShardSpec) IsReplicated() bool { return s.Axis < 0 }

// Equal reports layout equality.
func (s ShardSpec) Equal(o ShardSpec) bool { return s.Axis == o.Axis }

// String implements fmt.Stringer using the paper's S/R notation.
func (s ShardSpec) String() string {
	if s.IsReplicated() {
		return "R"
	}
	return fmt.Sprintf("S%d", s.Axis)
}

// PropagateSpec maps an input layout through a single operator to the
// layout of its output, implementing the symbolic shape check of the
// strategy validator. The second return value is false when the operator
// cannot execute with the given input layout without extra communication
// (e.g. Softmax over a split axis), which early-stops the candidate. An
// operator without an input or an output has no layout to map: that is
// an error, whatever the layout.
//
// The rules cover the operator vocabulary the model zoo emits:
//
//   - elementwise ops preserve the layout;
//   - Softmax and LayerNorm need the full normalized (last) axis;
//   - Reshape between (B,S,D) and (B,H,S,Dh) re-maps the hidden split to
//     the head split and vice versa (the attention head split);
//   - BatchMatMul cannot contract over a split axis;
//   - Concat cannot concatenate over a split axis;
//   - pooling cannot split the pooled spatial axes, and global average
//     pooling (B,H,W,C)→(B,C) re-maps a channel split.
func PropagateSpec(n *graph.Node, in ShardSpec) (ShardSpec, bool, error) {
	if len(n.Inputs) == 0 || len(n.Outputs) == 0 {
		return in, false, fmt.Errorf("ir: operator %q has %d inputs and %d outputs, no layout to propagate",
			n.Name, len(n.Inputs), len(n.Outputs))
	}
	if in.IsReplicated() {
		return in, true, nil
	}
	inShape := primaryInput(n).Shape
	outShape := n.Outputs[0].Shape
	last := inShape.Rank() - 1

	switch n.Kind {
	case graph.OpReshape:
		// Head split/merge mappings used by attention modules.
		switch {
		case inShape.Rank() == 3 && outShape.Rank() == 4:
			// (B,S,D) → (B,H,S,Dh): batch stays, hidden→heads.
			switch in.Axis {
			case 0:
				return Split(0), true, nil
			case 2:
				return Split(1), true, nil
			}
			return in, false, nil
		case inShape.Rank() == 4 && outShape.Rank() == 3:
			// (B,H,S,Dh) → (B,S,D): batch stays, heads→hidden.
			switch in.Axis {
			case 0:
				return Split(0), true, nil
			case 1:
				return Split(2), true, nil
			}
			return in, false, nil
		default:
			// Generic reshape: only a leading-axis split survives when
			// the leading extent is preserved.
			if in.Axis == 0 && outShape[0] == inShape[0] {
				return Split(0), true, nil
			}
			return in, false, nil
		}

	case graph.OpSoftmax, graph.OpLayerNorm:
		// Normalization needs the full last axis.
		if in.Axis == last {
			return in, false, nil
		}
		return in, true, nil

	case graph.OpBatchMatMul:
		// Contraction over the split axis would need a partial-sum
		// reduction that glue nodes do not emit.
		if in.Axis == last {
			return in, false, nil
		}
		return in, true, nil

	case graph.OpConcat:
		// Concatenating along the split axis would interleave shards.
		cat := int(n.AttrOr("axis", int64(outShape.Rank()-1)))
		if in.Axis == cat {
			return in, false, nil
		}
		return in, true, nil

	case graph.OpMaxPool, graph.OpAvgPool:
		if outShape.Rank() == 2 && inShape.Rank() == 4 {
			// Global average pool (B,H,W,C) → (B,C).
			switch in.Axis {
			case 0:
				return Split(0), true, nil
			case 3:
				return Split(1), true, nil
			}
			return in, false, nil
		}
		// Window pooling: spatial splits would need halo exchange.
		if in.Axis == 1 || in.Axis == 2 {
			return in, false, nil
		}
		return in, true, nil

	case graph.OpCrossEntropy:
		// The loss reduces everything; any layout is acceptable and the
		// (scalar-ish) output inherits a batch split only.
		if in.Axis == 0 {
			return Split(0), true, nil
		}
		return Replicated(), true, nil

	case graph.OpTopK:
		// Top-k over the expert (last) axis needs the full axis.
		if in.Axis == last {
			return in, false, nil
		}
		return in, true, nil

	case graph.OpTranspose:
		// Conservative: only batch splits survive an arbitrary permute.
		if in.Axis == 0 {
			return in, true, nil
		}
		return in, false, nil

	default:
		// Elementwise and shape-preserving ops: Add, Mul, ReLU, GeLU,
		// Sigmoid, Tanh, BiasAdd, Dropout, Identity, BatchNorm, Gate.
		if in.Axis < outShape.Rank() {
			return in, true, nil
		}
		return in, false, nil
	}
}

// primaryInput returns the first activation or graph-input tensor of n,
// falling back to the first input. The primary input carries the layout
// being propagated.
func primaryInput(n *graph.Node) *graph.Tensor {
	for _, t := range n.Inputs {
		if t.Kind == graph.Activation || t.Kind == graph.Input {
			return t
		}
	}
	return n.Inputs[0]
}

// InverseSpec maps an output layout backwards through a single unary
// operator to the input layout that produces it. Used when a GraphNode's
// absorbed prefix ops (LayerNorm, Reshape) sit between the node boundary
// and the anchor. The second return is false when no valid pre-image
// exists.
func InverseSpec(n *graph.Node, out ShardSpec) (ShardSpec, bool) {
	if out.IsReplicated() {
		return out, true
	}
	inShape := primaryInput(n).Shape
	outShape := n.Outputs[0].Shape

	switch n.Kind {
	case graph.OpReshape:
		switch {
		case inShape.Rank() == 3 && outShape.Rank() == 4:
			switch out.Axis {
			case 0:
				return Split(0), true
			case 1:
				return Split(2), true
			}
			return out, false
		case inShape.Rank() == 4 && outShape.Rank() == 3:
			switch out.Axis {
			case 0:
				return Split(0), true
			case 2:
				return Split(1), true
			}
			return out, false
		default:
			if out.Axis == 0 && outShape[0] == inShape[0] {
				return Split(0), true
			}
			return out, false
		}
	case graph.OpSoftmax, graph.OpLayerNorm:
		if out.Axis == inShape.Rank()-1 {
			return out, false
		}
		return out, true
	default:
		if out.Axis < inShape.Rank() {
			return out, true
		}
		return out, false
	}
}
