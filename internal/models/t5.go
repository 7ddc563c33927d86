// Package models builds the computational graphs of the neural networks
// used in the paper's evaluation: the dense encoder–decoder transformer
// (T5) scaled by depth, the sparse mixture-of-experts model (GShard-MoE)
// scaled by width and depth, and the convolutional classifier (ResNet)
// scaled by classification width — plus the additional architectures
// (GPT-style decoder, U-Net, two-tower recommender) that populate the
// Table-2 cost-model ablation pool.
//
// The builders emit operator-level graphs with concrete shapes, layer tags
// on every repeated block, and realistic parameter counts, so the mining,
// strategy search, cost model and simulator all see the same structure the
// paper's TensorFlow graphs expose.
package models

import (
	"fmt"

	"tapas/internal/graph"
)

// T5Config describes a T5-style encoder–decoder transformer. The paper
// scales T5 by depth ("The T5 model is scaled by adding new layers") with
// the T5-large width (d_model 1024, d_ff 4096, 16 heads).
type T5Config struct {
	Name      string
	Batch     int64
	SeqLen    int64
	DModel    int64
	DFF       int64
	Heads     int64
	Vocab     int64
	EncLayers int
	DecLayers int
}

// T5Sized returns the paper's T5 scaling points by nominal parameter count:
// "100M", "200M", "300M" (350M in Fig. 6), "770M" (760M in Fig. 7) and
// "1.4B". Depth is chosen so total parameters land on the nominal size
// with T5-large width.
func T5Sized(size string) T5Config {
	layers := map[string]int{
		"100M": 2, "200M": 6, "300M": 11, "350M": 11, "760M": 24, "770M": 24, "1.4B": 46,
	}
	l, ok := layers[size]
	if !ok {
		panic(fmt.Sprintf("models: unknown T5 size %q", size))
	}
	return T5Config{
		Name:      "t5-" + size,
		Batch:     16,
		SeqLen:    512,
		DModel:    1024,
		DFF:       4096,
		Heads:     16,
		Vocab:     32128,
		EncLayers: l,
		DecLayers: l,
	}
}

// T5 builds the encoder–decoder transformer graph.
func T5(cfg T5Config) *graph.Graph {
	b := graph.NewBuilder(cfg.Name)

	b.SetLayer("embed")
	tokens := b.Input("tokens", graph.I32, graph.NewShape(cfg.Batch, cfg.SeqLen))
	embedTable := b.Weight("embed_table", graph.NewShape(cfg.Vocab, cfg.DModel))
	hidden := b.Op(graph.OpEmbedding, "embed",
		graph.NewShape(cfg.Batch, cfg.SeqLen, cfg.DModel), tokens, embedTable)

	// Encoder stack.
	for i := 0; i < cfg.EncLayers; i++ {
		b.SetLayer(fmt.Sprintf("enc.%d", i))
		hidden = transformerLayer(b, hidden, nil, cfg.DModel, cfg.DFF, cfg.Heads)
	}
	encOut := hidden

	// Decoder stack with cross-attention to the encoder output.
	b.SetLayer("dec_embed")
	decTokens := b.Input("dec_tokens", graph.I32, graph.NewShape(cfg.Batch, cfg.SeqLen))
	dec := b.Op(graph.OpEmbedding, "dec_embed",
		graph.NewShape(cfg.Batch, cfg.SeqLen, cfg.DModel), decTokens, embedTable)
	for i := 0; i < cfg.DecLayers; i++ {
		b.SetLayer(fmt.Sprintf("dec.%d", i))
		dec = transformerLayer(b, dec, encOut, cfg.DModel, cfg.DFF, cfg.Heads)
	}

	// LM head (ties are ignored; T5 uses an output projection).
	b.SetLayer("lm_head")
	logits := b.Dense("lm_head", dec, cfg.Vocab, graph.OpIdentity)
	b.Op(graph.OpCrossEntropy, "loss", graph.NewShape(cfg.Batch, cfg.SeqLen), logits)

	return b.G
}

// transformerLayer appends one pre-LN transformer block: self-attention,
// optional cross-attention against memory, and the feed-forward network.
// It returns the block output.
func transformerLayer(b *graph.Builder, x, memory *graph.Tensor, d, dff, heads int64) *graph.Tensor {
	h := attention(b, "self_attn", x, x, d, heads)
	x = b.Residual("self_attn_res", x, h)
	if memory != nil {
		h = attention(b, "cross_attn", x, memory, d, heads)
		x = b.Residual("cross_attn_res", x, h)
	}
	h = ffn(b, x, d, dff)
	return b.Residual("ffn_res", x, h)
}

// attention appends a multi-head attention module reading queries from q
// and keys/values from kv: LN → Q/K/V projections → scaled dot-product →
// output projection. Shapes follow (B, S, d) activations with the head
// split expressed through Reshape/Transpose, matching the operator
// sequence a TF transformer emits.
func attention(b *graph.Builder, name string, q, kv *graph.Tensor, d, heads int64) *graph.Tensor {
	B, S := q.Shape[0], q.Shape[1]
	Skv := kv.Shape[1]
	dh := d / heads

	x := b.LayerNorm(name+"_ln", q)

	qw := b.Weight(name+"_q_w", graph.NewShape(d, d))
	kw := b.Weight(name+"_k_w", graph.NewShape(d, d))
	vw := b.Weight(name+"_v_w", graph.NewShape(d, d))
	qp := b.Op(graph.OpMatMul, name+"_q", graph.NewShape(B, S, d), x, qw)
	kp := b.Op(graph.OpMatMul, name+"_k", graph.NewShape(B, Skv, d), kv, kw)
	vp := b.Op(graph.OpMatMul, name+"_v", graph.NewShape(B, Skv, d), kv, vw)

	qh := b.Op(graph.OpReshape, name+"_q_split", graph.NewShape(B, heads, S, dh), qp)
	kh := b.Op(graph.OpReshape, name+"_k_split", graph.NewShape(B, heads, Skv, dh), kp)
	vh := b.Op(graph.OpReshape, name+"_v_split", graph.NewShape(B, heads, Skv, dh), vp)

	scores := b.Op(graph.OpBatchMatMul, name+"_scores", graph.NewShape(B, heads, S, Skv), qh, kh)
	probs := b.Op(graph.OpSoftmax, name+"_softmax", scores.Shape.Clone(), scores)
	ctx := b.Op(graph.OpBatchMatMul, name+"_context", graph.NewShape(B, heads, S, dh), probs, vh)
	merged := b.Op(graph.OpReshape, name+"_merge", graph.NewShape(B, S, d), ctx)

	ow := b.Weight(name+"_out_w", graph.NewShape(d, d))
	return b.Op(graph.OpMatMul, name+"_out", graph.NewShape(B, S, d), merged, ow)
}

// ffn appends the transformer feed-forward network: LN → Dense(d→dff) with
// GeLU → Dense(dff→d).
func ffn(b *graph.Builder, x *graph.Tensor, d, dff int64) *graph.Tensor {
	h := b.LayerNorm("ffn_ln", x)
	h = b.Dense("ffn_up", h, dff, graph.OpGeLU)
	return b.Dense("ffn_down", h, d, graph.OpIdentity)
}
