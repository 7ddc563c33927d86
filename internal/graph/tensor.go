package graph

import "fmt"

// TensorKind classifies a tensor by its role in training. The distinction
// matters throughout the system: weights are replicated or sharded and
// carry optimizer state; activations flow along edges and define the
// communication volume of a sharding pattern; constants are filtered out of
// the communication cost by the CF optimization of Table 2.
type TensorKind int

const (
	// Weight is a trainable parameter (has a gradient and optimizer state).
	Weight TensorKind = iota
	// Activation is an intermediate value produced and consumed in one pass.
	Activation
	// Input is a graph input (mini-batch data or token ids).
	Input
	// Constant is a non-trainable tensor (masks, position tables, scalars).
	Constant
)

// String implements fmt.Stringer.
func (k TensorKind) String() string {
	switch k {
	case Weight:
		return "weight"
	case Activation:
		return "activation"
	case Input:
		return "input"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("tensorkind(%d)", int(k))
	}
}

// Tensor is a value flowing through, or stored by, the graph. Tensors are
// identified by pointer: the node that lists a tensor in Outputs is its
// unique producer, and every node listing it in Inputs is a consumer.
type Tensor struct {
	Name  string
	Kind  TensorKind
	DType DType
	Shape Shape
}

// NewTensor constructs a tensor, validating the shape.
func NewTensor(name string, kind TensorKind, dt DType, shape Shape) *Tensor {
	if !shape.Valid() {
		panic(fmt.Sprintf("graph: tensor %q has invalid shape %v", name, shape))
	}
	return &Tensor{Name: name, Kind: kind, DType: dt, Shape: shape}
}

// Bytes returns the storage footprint of the tensor.
func (t *Tensor) Bytes() int64 { return t.Shape.NumElements() * t.DType.Size() }

// String implements fmt.Stringer.
func (t *Tensor) String() string {
	return fmt.Sprintf("%s:%s%s[%s]", t.Name, t.DType, t.Shape, t.Kind)
}
