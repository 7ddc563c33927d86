package graph

import "fmt"

// OpKind enumerates the operator vocabulary of the IR. The set covers the
// models evaluated in the paper (T5 / GShard-MoE / ResNet) plus the extra
// architectures used in the Table-2 cost-model ablation (BERT, GPT, U-Net,
// two-tower recommender, WideResNet).
type OpKind int

const (
	// OpMatMul multiplies a (..., M, K) input by a (K, N) weight.
	OpMatMul OpKind = iota
	// OpBatchMatMul multiplies two batched activations, e.g. QK^T.
	OpBatchMatMul
	// OpConv2D is a 2-D convolution with weight (kH, kW, Cin, Cout).
	OpConv2D
	// OpConvTranspose2D is an up-convolution (U-Net decoder).
	OpConvTranspose2D
	// OpBiasAdd adds a per-channel bias vector.
	OpBiasAdd
	// OpAdd is an elementwise sum (residual connections).
	OpAdd
	// OpMul is an elementwise product (gating).
	OpMul
	// OpReLU is the rectified-linear activation.
	OpReLU
	// OpGeLU is the Gaussian-error-linear activation.
	OpGeLU
	// OpSigmoid is the logistic activation.
	OpSigmoid
	// OpTanh is the hyperbolic-tangent activation.
	OpTanh
	// OpSoftmax normalizes over the last axis.
	OpSoftmax
	// OpLayerNorm normalizes over the feature axis with scale+shift weights.
	OpLayerNorm
	// OpBatchNorm normalizes over the batch axis with scale+shift weights.
	OpBatchNorm
	// OpMaxPool is a max-pooling window reduction.
	OpMaxPool
	// OpAvgPool is an average-pooling window reduction.
	OpAvgPool
	// OpDropout randomly zeroes activations (identity for cost purposes).
	OpDropout
	// OpEmbedding gathers rows of an embedding table by token id.
	OpEmbedding
	// OpTranspose permutes axes.
	OpTranspose
	// OpReshape changes the logical shape without moving data.
	OpReshape
	// OpConcat concatenates along an axis (U-Net skip connections).
	OpConcat
	// OpGate computes MoE routing probabilities.
	OpGate
	// OpTopK selects the top-k routing targets per token.
	OpTopK
	// OpDispatch routes tokens to experts (all-to-all in the sharded form).
	OpDispatch
	// OpCombine merges expert outputs back per token.
	OpCombine
	// OpCrossEntropy is the training loss head.
	OpCrossEntropy
	// OpIdentity forwards its input unchanged (graph plumbing).
	OpIdentity
	// OpAllReduce sums a tensor across the tensor-parallel group. The
	// collective kinds below appear only in reconstructed (parallelized)
	// graphs.
	OpAllReduce
	// OpAllGather concatenates shards across the group.
	OpAllGather
	// OpReduceScatter sums and scatters shards across the group.
	OpReduceScatter
	// OpAllToAll exchanges shards pairwise across the group.
	OpAllToAll

	numOpKinds // sentinel; keep last
)

var opNames = [numOpKinds]string{
	OpMatMul:          "MatMul",
	OpBatchMatMul:     "BatchMatMul",
	OpConv2D:          "Conv2D",
	OpConvTranspose2D: "ConvTranspose2D",
	OpBiasAdd:         "BiasAdd",
	OpAdd:             "Add",
	OpMul:             "Mul",
	OpReLU:            "ReLU",
	OpGeLU:            "GeLU",
	OpSigmoid:         "Sigmoid",
	OpTanh:            "Tanh",
	OpSoftmax:         "Softmax",
	OpLayerNorm:       "LayerNorm",
	OpBatchNorm:       "BatchNorm",
	OpMaxPool:         "MaxPool",
	OpAvgPool:         "AvgPool",
	OpDropout:         "Dropout",
	OpEmbedding:       "Embedding",
	OpTranspose:       "Transpose",
	OpReshape:         "Reshape",
	OpConcat:          "Concat",
	OpGate:            "Gate",
	OpTopK:            "TopK",
	OpDispatch:        "Dispatch",
	OpCombine:         "Combine",
	OpCrossEntropy:    "CrossEntropy",
	OpIdentity:        "Identity",
	OpAllReduce:       "AllReduce",
	OpAllGather:       "AllGather",
	OpReduceScatter:   "ReduceScatter",
	OpAllToAll:        "AllToAll",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k < 0 || k >= numOpKinds {
		return fmt.Sprintf("opkind(%d)", int(k))
	}
	return opNames[k]
}

// forwardFLOPs returns the forward-pass floating point operations of a node.
// The formulas follow the standard dense-op conventions used by the paper's
// FLOPs-based throughput reporting (2·M·K·N for MatMul and the analogous
// 2·kH·kW·Cin per output element for convolutions); elementwise and
// normalization operators contribute a small constant per element.
func forwardFLOPs(n *Node) int64 {
	out := int64(0)
	for _, t := range n.Outputs {
		out += t.Shape.NumElements()
	}
	switch n.Kind {
	case OpMatMul, OpBatchMatMul:
		// Contraction length: last axis of the first (activation) input.
		a := n.Inputs[0].Shape
		k := a[len(a)-1]
		return 2 * k * out
	case OpConv2D, OpConvTranspose2D:
		w := weightOf(n)
		if w == nil {
			return 0
		}
		// weight is (kH, kW, Cin, Cout): each output element costs
		// 2·kH·kW·Cin flops.
		recept := w.Shape[0] * w.Shape[1] * w.Shape[2]
		return 2 * recept * out
	case OpSoftmax:
		return 5 * out
	case OpLayerNorm, OpBatchNorm:
		return 8 * out
	case OpGeLU:
		return 10 * out
	case OpSigmoid, OpTanh:
		return 4 * out
	case OpMaxPool, OpAvgPool:
		kh := n.AttrOr("kH", 2)
		kw := n.AttrOr("kW", 2)
		return kh * kw * out
	case OpCrossEntropy:
		return 6 * out
	case OpReshape, OpIdentity, OpTranspose, OpDropout, OpEmbedding,
		OpTopK, OpDispatch, OpCombine, OpConcat:
		// Data movement / lookup: negligible arithmetic.
		return out
	default:
		// Elementwise: Add, Mul, ReLU, BiasAdd, Gate.
		return out
	}
}

// weightOf returns the first trainable-weight input of n, or nil.
func weightOf(n *Node) *Tensor {
	for _, t := range n.Inputs {
		if t.Kind == Weight {
			return t
		}
	}
	return nil
}
