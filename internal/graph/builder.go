package graph

import (
	"fmt"
	"strconv"
)

// Builder provides a fluent way to assemble graphs. It names tensors
// uniquely, wires nodes into the graph, and tracks the "current layer" tag
// so model builders read like layer definitions.
type Builder struct {
	G     *Graph
	layer string
	seq   int
}

// NewBuilder creates a builder around a fresh graph.
func NewBuilder(name string) *Builder {
	return &Builder{G: New(name)}
}

// SetLayer sets the layer tag applied to subsequently created nodes.
func (b *Builder) SetLayer(layer string) { b.layer = layer }

// Layer returns the current layer tag.
func (b *Builder) Layer() string { return b.layer }

func (b *Builder) uniq(prefix string) string {
	b.seq++
	return prefix + "_" + strconv.Itoa(b.seq)
}

// Input declares a graph input tensor.
func (b *Builder) Input(name string, dt DType, shape Shape) *Tensor {
	return NewTensor(name, Input, dt, shape)
}

// Weight declares a trainable weight tensor.
func (b *Builder) Weight(name string, shape Shape) *Tensor {
	return NewTensor(name, Weight, F32, shape)
}

// Op adds a node with explicit inputs and a single output of the given
// shape, returning the output tensor.
func (b *Builder) Op(kind OpKind, name string, outShape Shape, inputs ...*Tensor) *Tensor {
	out := NewTensor(b.uniq(name+"_out"), Activation, F32, outShape)
	b.OpMulti(kind, name, inputs, []*Tensor{out}, nil)
	return out
}

// OpAttrs is like Op but with operator attributes.
func (b *Builder) OpAttrs(kind OpKind, name string, outShape Shape, attrs map[string]int64, inputs ...*Tensor) *Tensor {
	out := NewTensor(b.uniq(name+"_out"), Activation, F32, outShape)
	b.OpMulti(kind, name, inputs, []*Tensor{out}, attrs)
	return out
}

// OpMulti adds a node with explicit inputs, outputs and attributes.
func (b *Builder) OpMulti(kind OpKind, name string, inputs, outputs []*Tensor, attrs map[string]int64) *Node {
	n := &Node{
		Name:    b.uniq(name),
		Kind:    kind,
		Layer:   b.layer,
		Inputs:  inputs,
		Outputs: outputs,
		Attrs:   attrs,
	}
	return b.G.AddNode(n)
}

// Dense adds MatMul(x,W)+BiasAdd(bias) with an optional activation — the
// canonical GraphNode example from the paper's Figure 3. x must be rank ≥ 2
// with the contraction on the last axis; W is (K, N).
func (b *Builder) Dense(name string, x *Tensor, outFeatures int64, act OpKind) *Tensor {
	in := x.Shape
	k := in[in.Rank()-1]
	outShape := in.Clone()
	outShape[outShape.Rank()-1] = outFeatures

	w := b.Weight(b.uniq(name+"_w"), NewShape(k, outFeatures))
	bias := b.Weight(b.uniq(name+"_b"), NewShape(outFeatures))

	y := b.Op(OpMatMul, name+"_matmul", outShape, x, w)
	y = b.Op(OpBiasAdd, name+"_biasadd", outShape, y, bias)
	if act != OpIdentity {
		y = b.Op(act, name+"_act", outShape, y)
	}
	return y
}

// LayerNorm adds a layer normalization with scale and shift weights over
// the last axis of x.
func (b *Builder) LayerNorm(name string, x *Tensor) *Tensor {
	d := x.Shape[x.Shape.Rank()-1]
	gamma := b.Weight(b.uniq(name+"_gamma"), NewShape(d))
	beta := b.Weight(b.uniq(name+"_beta"), NewShape(d))
	return b.Op(OpLayerNorm, name, x.Shape.Clone(), x, gamma, beta)
}

// Residual adds an elementwise Add of two same-shaped activations.
func (b *Builder) Residual(name string, x, y *Tensor) *Tensor {
	if !x.Shape.Equal(y.Shape) {
		panic(fmt.Sprintf("graph: residual shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	return b.Op(OpAdd, name, x.Shape.Clone(), x, y)
}

// Conv2D adds a convolution with weight (kH,kW,Cin,Cout) and stride s over
// an NHWC input, followed by BatchNorm and ReLU when act is true.
func (b *Builder) Conv2D(name string, x *Tensor, kH, kW, cout, stride int64, act bool) *Tensor {
	in := x.Shape // (N, H, W, Cin)
	cin := in[3]
	oh, ow := in[1]/stride, in[2]/stride
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	w := b.Weight(b.uniq(name+"_w"), NewShape(kH, kW, cin, cout))
	outShape := NewShape(in[0], oh, ow, cout)
	y := b.OpAttrs(OpConv2D, name, outShape, map[string]int64{"stride": stride}, x, w)
	if act {
		scale := b.Weight(b.uniq(name+"_bn_scale"), NewShape(cout))
		shift := b.Weight(b.uniq(name+"_bn_shift"), NewShape(cout))
		y = b.Op(OpBatchNorm, name+"_bn", outShape, y, scale, shift)
		y = b.Op(OpReLU, name+"_relu", outShape, y)
	}
	return y
}
