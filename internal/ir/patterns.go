package ir

import (
	"tapas/internal/comm"
	"tapas/internal/graph"
)

// Pattern is one parallelized implementation of a GraphNode across a
// tensor-parallel group of W devices — the paper's ShardingPattern. It
// records the boundary layouts (for the symbolic shape check), the
// collectives its materialization emits in forward and backward passes
// (for the cost model), and per-device resource footprints (for the
// memory-feasibility check and the runtime simulator). A pattern names
// no node: one menu serves every node of a menu key (see PatternsFor).
type Pattern struct {
	Name string
	W    int

	// In is the layout required of the primary activation input; In2 the
	// layout required of secondary activation inputs (defaults to In when
	// nil). Out is the layout of the boundary outputs.
	In, Out ShardSpec
	In2     *ShardSpec

	// WeightSpecs is the layout of each tensor in the node's Weights.
	WeightSpecs []ShardSpec

	// FwdComm and BwdComm are the collectives executed per iteration.
	FwdComm, BwdComm []comm.Event

	// Per-device footprints.
	FLOPsPerDev       int64 // forward FLOPs on one device
	WeightBytesPerDev int64
	OutBytesPerDev    int64 // boundary activations stored for backward

	// StillBytes are the node's bytes that never move: its rank-1
	// weights and its operators' constant inputs. Only the naive cost
	// model prices them (cost.Model.ConstantFilter off).
	StillBytes int64

	// SRC is the Split-Replica-Communication expression describing the
	// implementation, in the paper's notation.
	SRC string
}

// Clone returns a deep copy of the pattern whose mutable slice fields
// (comm events, weight specs) are private to the copy. Patterns handed out
// by PatternsFor are shared by every node of a menu cell, so planners that
// rewrite a pattern's collectives (e.g. the ZeRO-2 baseline) must clone
// first.
func (p *Pattern) Clone() *Pattern {
	q := *p
	q.FwdComm = append([]comm.Event(nil), p.FwdComm...)
	q.BwdComm = append([]comm.Event(nil), p.BwdComm...)
	q.WeightSpecs = append([]ShardSpec(nil), p.WeightSpecs...)
	if p.In2 != nil {
		in2 := *p.In2
		q.In2 = &in2
	}
	return &q
}

// In2Spec returns the secondary-input layout.
func (p *Pattern) In2Spec() ShardSpec {
	if p.In2 != nil {
		return *p.In2
	}
	return p.In
}

// replicatedSpecs returns an all-replicated weight-spec slice for gn.
func replicatedSpecs(gn *GraphNode) []ShardSpec {
	ws := make([]ShardSpec, len(gn.Weights))
	for i := range ws {
		ws[i] = Replicated()
	}
	return ws
}

// lastAxis returns the final axis index of a shape, or -1.
func lastAxis(s graph.Shape) int {
	if s == nil {
		return -1
	}
	return s.Rank() - 1
}

// PatternsFor enumerates the sharding patterns of a GraphNode for a
// tensor-parallel group of w devices (Step ③, Strategy Enumeration).
// Patterns whose splits do not divide the corresponding tensor extents are
// omitted. For w == 1 only the trivial replicate pattern exists.
//
// Results are memoized per distinct node and w: Group gives the nodes of
// one menu key one memo cell (see internMenus), whose menu is built once,
// from its first node. The strategy search calls this in its innermost
// loops, from many goroutines at once. The returned slice is the memoized
// menu itself, shared by every caller and every node of the cell: treat
// it and its *Pattern values as read-only. Copy the slice before
// reordering it, and Clone a pattern before modifying it. gn must come
// from Group.
func PatternsFor(gn *GraphNode, w int) []*Pattern {
	c := gn.menu
	c.mu.Lock()
	defer c.mu.Unlock()
	ps, ok := c.menus[w]
	if !ok {
		ps = patternsForUncached(c.first, w)
		c.menus[w] = ps
	}
	return ps
}

// patternsForUncached computes the pattern menu for one (node, w) pair.
// Every pattern carries the bytes of gn that never move between devices:
// its rank-1 weights (biases, norm scales) and its operators' constant
// inputs (masks, position tables).
func patternsForUncached(gn *GraphNode, w int) []*Pattern {
	var still int64
	for _, t := range gn.Weights {
		if t.Shape.Rank() == 1 {
			still += t.Bytes()
		}
	}
	for _, op := range gn.Ops {
		for _, t := range op.Inputs {
			if t.Kind == graph.Constant {
				still += t.Bytes()
			}
		}
	}
	ps := kindPatterns(gn, w)
	for _, p := range ps {
		p.StillBytes = still
	}
	return ps
}

// kindPatterns dispatches to the generator of gn's kind.
func kindPatterns(gn *GraphNode, w int) []*Pattern {
	if w <= 1 {
		return []*Pattern{replicatePattern(gn, 1)}
	}
	switch gn.Kind {
	case KDense, KRouter:
		return densePatterns(gn, w)
	case KConv:
		return convPatterns(gn, w)
	case KEmbedding:
		return embeddingPatterns(gn, w)
	case KExpert:
		return expertPatterns(gn, w)
	case KDispatch:
		return dispatchPatterns(gn, w)
	case KCombine:
		return combinePatterns(gn, w)
	default:
		return gluePatterns(gn, w)
	}
}

// replicatePattern implements R(W): full weights and full compute on every
// device, no communication. It is the fallback every node kind supports.
func replicatePattern(gn *GraphNode, w int) *Pattern {
	return &Pattern{
		Name:              "replicate",
		W:                 w,
		In:                Replicated(),
		Out:               Replicated(),
		WeightSpecs:       replicatedSpecs(gn),
		FLOPsPerDev:       gn.ForwardFLOPs(),
		WeightBytesPerDev: gn.WeightBytes(),
		OutBytesPerDev:    gn.OutBytes(),
		SRC:               "Out = R(" + gn.Kind.String() + "(R(In)))",
	}
}

// dataParallelPattern implements the batch split S0: weights replicated,
// activations and compute divided by w, gradients all-reduced in backward.
// Weight-free nodes emit no gradient synchronization.
func dataParallelPattern(gn *GraphNode, w int) *Pattern {
	p := &Pattern{
		Name:              "data-parallel",
		W:                 w,
		In:                Split(0),
		Out:               Split(0),
		WeightSpecs:       replicatedSpecs(gn),
		FLOPsPerDev:       gn.ForwardFLOPs() / int64(w),
		WeightBytesPerDev: gn.WeightBytes(),
		OutBytesPerDev:    gn.OutBytes() / int64(w),
		SRC:               "Out = S0(" + gn.Kind.String() + "(S0(In),R(W)))",
	}
	if wb := gn.WeightBytes(); wb > 0 {
		p.BwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: wb, W: w}}
	}
	return p
}

// batchDivisible reports whether the leading axis of the primary
// boundary input and all boundary outputs divide by w.
func batchDivisible(gn *GraphNode, w int) bool {
	for _, t := range gn.InTensors {
		if !t.Shape.Divisible(0, int64(w)) {
			return false
		}
	}
	for _, t := range gn.OutTensors {
		if !t.Shape.Divisible(0, int64(w)) {
			return false
		}
	}
	return len(gn.InTensors) > 0 || len(gn.OutTensors) > 0
}

// densePatterns enumerates Dense/Router implementations. With anchor
// weight (K,N) the choices mirror the paper's Figure 3: replicate, batch
// split (data parallel), column-major split S1, row-major split S0, and
// the gathered column split.
func densePatterns(gn *GraphNode, w int) []*Pattern {
	anchor := gn.Anchor
	weight := anchorWeight(gn)
	out := []*Pattern{replicatePattern(gn, w)}
	if batchDivisible(gn, w) {
		out = append(out, dataParallelPattern(gn, w))
	}
	if weight == nil {
		return out
	}
	ws := int64(w)
	anchorIn := primaryInput(anchor)
	anchorOut := anchor.Outputs[0]

	// Column-parallel: weight split on N; output feature-split; backward
	// all-reduces the input gradient (Megatron's f operator).
	if weight.Shape.Divisible(1, ws) && anchorOut.Shape.Divisible(lastAxis(anchorOut.Shape), ws) {
		if p, ok := boundaryMapped(gn, w, "column-parallel",
			Replicated(), Split(lastAxis(anchorOut.Shape)), 1); ok {
			p.BwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: anchorIn.Bytes(), W: w}}
			p.SRC = "Out = S1(MatMul(R(In),S1(W)))+S1(BiasAdd)"
			out = append(out, p)
		}
	}

	// Row-parallel: weight split on K; input feature-split; forward
	// all-reduces the partial outputs (Megatron's g operator).
	if weight.Shape.Divisible(0, ws) && anchorIn.Shape.Divisible(lastAxis(anchorIn.Shape), ws) {
		if p, ok := boundaryMapped(gn, w, "row-parallel",
			Split(lastAxis(anchorIn.Shape)), Replicated(), 0); ok {
			p.FwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: anchorOut.Bytes(), W: w}}
			p.SRC = "Out = ReLU[CAR(S0(MatMul(S1(In),S0(W))))+R(BiasAdd)]"
			out = append(out, p)
		}
	}

	// Column-parallel with gathered output: weight split on N, outputs
	// re-assembled with an all-gather so the consumer sees the full
	// tensor (the C_AG variant of Figure 3).
	if weight.Shape.Divisible(1, ws) && anchorOut.Shape.Divisible(lastAxis(anchorOut.Shape), ws) {
		if p, ok := boundaryMapped(gn, w, "column-gather",
			Replicated(), Replicated(), 1); ok {
			p.FwdComm = []comm.Event{{Kind: comm.AllGather, Bytes: anchorOut.Bytes(), W: w}}
			p.BwdComm = []comm.Event{
				{Kind: comm.ReduceScatter, Bytes: anchorOut.Bytes(), W: w},
				{Kind: comm.AllReduce, Bytes: anchorIn.Bytes(), W: w},
			}
			p.SRC = "Out = CAG[S1(MatMul(R(In),S1(W)))+S1(BiasAdd)]"
			p.Out = Replicated()
			p.OutBytesPerDev = gn.OutBytes()
			out = append(out, p)
		}
	}
	return out
}

// anchorWeight returns the trainable weight of the anchor op, or nil.
func anchorWeight(gn *GraphNode) *graph.Tensor {
	if gn.Anchor == nil {
		return nil
	}
	for _, t := range gn.Anchor.Inputs {
		if t.Kind == graph.Weight {
			return t
		}
	}
	return nil
}

// boundaryMapped builds a feature-split pattern skeleton: it maps the
// anchor-level input/output layouts through the absorbed prefix and suffix
// operators to the GraphNode boundary, computes per-device footprints, and
// shards the anchor weight on weightAxis. It returns ok=false when the
// absorbed plumbing cannot carry the layout (e.g. a softmax over the split
// axis), which prunes the pattern exactly as the paper's symbolic shape
// check would.
func boundaryMapped(gn *GraphNode, w int, name string, anchorIn, anchorOut ShardSpec, weightAxis int) (*Pattern, bool) {
	// Backward through the prefix: anchor input layout → boundary input.
	boundIn := anchorIn
	for i := len(gn.Pre) - 1; i >= 0; i-- {
		var ok bool
		boundIn, ok = InverseSpec(gn.Pre[i], boundIn)
		if !ok {
			return nil, false
		}
	}
	// Forward through the suffix: anchor output layout → boundary output.
	boundOut := anchorOut
	for _, op := range gn.Post {
		var (
			ok  bool
			err error
		)
		if boundOut, ok, err = PropagateSpec(op, boundOut); err != nil || !ok {
			return nil, false
		}
	}

	ws := int64(w)
	weight := anchorWeight(gn)
	specs := make([]ShardSpec, len(gn.Weights))
	var wBytes int64
	for i, t := range gn.Weights {
		switch {
		case t == weight:
			specs[i] = Split(weightAxis)
			wBytes += t.Bytes() / ws
		case !anchorOut.IsReplicated() && t.Shape.Rank() == 1 &&
			t.Shape[0]%ws == 0 && followsOutput(gn, t):
			// Per-feature vectors (bias, norm scale) after a
			// feature-split anchor are sharded with the output.
			specs[i] = Split(0)
			wBytes += t.Bytes() / ws
		default:
			specs[i] = Replicated()
			wBytes += t.Bytes()
		}
	}

	outBytes := gn.OutBytes()
	if !boundOut.IsReplicated() {
		outBytes /= ws
	}
	return &Pattern{
		Name:              name,
		W:                 w,
		In:                boundIn,
		Out:               boundOut,
		WeightSpecs:       specs,
		FLOPsPerDev:       gn.ForwardFLOPs() / ws,
		WeightBytesPerDev: wBytes,
		OutBytesPerDev:    outBytes,
	}, true
}

// followsOutput reports whether weight tensor t belongs to an op at or
// after the anchor (so it is laid out like the anchor output).
func followsOutput(gn *GraphNode, t *graph.Tensor) bool {
	for _, op := range gn.Post {
		for _, in := range op.Inputs {
			if in == t {
				return true
			}
		}
	}
	if gn.Anchor != nil {
		for _, in := range gn.Anchor.Inputs {
			if in == t {
				return true
			}
		}
	}
	return false
}

// convPatterns enumerates Conv implementations: replicate, batch split,
// output-channel split (weight axis 3) and input-channel split (weight
// axis 2, forward all-reduce).
func convPatterns(gn *GraphNode, w int) []*Pattern {
	out := []*Pattern{replicatePattern(gn, w)}
	if batchDivisible(gn, w) {
		out = append(out, dataParallelPattern(gn, w))
	}
	weight := anchorWeight(gn)
	if weight == nil || weight.Shape.Rank() != 4 {
		return out
	}
	ws := int64(w)
	anchor := gn.Anchor
	anchorIn := primaryInput(anchor)
	anchorOut := anchor.Outputs[0]

	if weight.Shape.Divisible(3, ws) && anchorOut.Shape.Divisible(3, ws) {
		if p, ok := boundaryMapped(gn, w, "outchannel-parallel",
			Replicated(), Split(3), 3); ok {
			p.BwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: anchorIn.Bytes(), W: w}}
			p.SRC = "Out = S3(Conv2D(R(In),S3(W)))"
			out = append(out, p)
		}
	}
	if weight.Shape.Divisible(2, ws) && anchorIn.Shape.Divisible(3, ws) {
		if p, ok := boundaryMapped(gn, w, "inchannel-parallel",
			Split(3), Replicated(), 2); ok {
			p.FwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: anchorOut.Bytes(), W: w}}
			p.SRC = "Out = CAR(S3(Conv2D(S3(In),S2(W))))"
			out = append(out, p)
		}
	}
	return out
}

// embeddingPatterns enumerates table-gather implementations: replicate,
// batch split, vocabulary split (weight axis 0, forward all-reduce of the
// masked partial gathers), and hidden split (weight axis 1, feature-split
// output).
func embeddingPatterns(gn *GraphNode, w int) []*Pattern {
	out := []*Pattern{replicatePattern(gn, w)}
	if batchDivisible(gn, w) {
		out = append(out, dataParallelPattern(gn, w))
	}
	weight := anchorWeight(gn)
	if weight == nil {
		return out
	}
	ws := int64(w)
	anchorOut := gn.Anchor.Outputs[0]

	if weight.Shape.Divisible(0, ws) {
		if p, ok := boundaryMapped(gn, w, "vocab-parallel",
			Replicated(), Replicated(), 0); ok {
			p.FwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: anchorOut.Bytes(), W: w}}
			p.SRC = "Out = CAR(Embedding(R(In),S0(W)))"
			out = append(out, p)
		}
	}
	if weight.Shape.Divisible(1, ws) && anchorOut.Shape.Divisible(lastAxis(anchorOut.Shape), ws) {
		if p, ok := boundaryMapped(gn, w, "hidden-parallel",
			Replicated(), Split(lastAxis(anchorOut.Shape)), 1); ok {
			p.SRC = "Out = S1(Embedding(R(In),S1(W)))"
			out = append(out, p)
		}
	}
	return out
}

// expertPatterns enumerates MoE expert implementations: replicate,
// capacity (batch) split, expert parallelism (weight and activations split
// on the expert axis, no collective — the all-to-alls live in Dispatch and
// Combine), and the nested expert+tensor split the paper discovers on
// larger clusters.
func expertPatterns(gn *GraphNode, w int) []*Pattern {
	out := []*Pattern{replicatePattern(gn, w)}
	weight := anchorWeight(gn)
	if weight == nil {
		return out
	}
	ws := int64(w)
	E := weight.Shape[0]
	anchor := gn.Anchor
	anchorIn := primaryInput(anchor)
	anchorOut := anchor.Outputs[0]

	// Capacity split: every device runs all experts on 1/w of the
	// capacity slots; gradients all-reduce like data parallelism.
	if anchorIn.Shape.Divisible(1, ws) && anchorOut.Shape.Divisible(1, ws) {
		p := &Pattern{
			Name:              "capacity-parallel",
			W:                 w,
			In:                Split(1),
			Out:               Split(1),
			WeightSpecs:       replicatedSpecs(gn),
			FLOPsPerDev:       gn.ForwardFLOPs() / ws,
			WeightBytesPerDev: gn.WeightBytes(),
			OutBytesPerDev:    gn.OutBytes() / ws,
			BwdComm:           []comm.Event{{Kind: comm.AllReduce, Bytes: gn.WeightBytes(), W: w}},
			SRC:               "Out = S1(BatchMatMul(S1(In),R(W)))",
		}
		out = append(out, p)
	}

	// Expert parallel: weight split on the expert axis.
	if E%ws == 0 {
		specs := replicatedSpecs(gn)
		for i, t := range gn.Weights {
			if t.Shape.Rank() == 3 && t.Shape[0] == E {
				specs[i] = Split(0)
			}
		}
		out = append(out, &Pattern{
			Name:              "expert-parallel",
			W:                 w,
			In:                Split(0),
			Out:               Split(0),
			WeightSpecs:       specs,
			FLOPsPerDev:       gn.ForwardFLOPs() / ws,
			WeightBytesPerDev: gn.WeightBytes() / ws,
			OutBytesPerDev:    gn.OutBytes() / ws,
			SRC:               "Out = S0(BatchMatMul(S0(In),S0(W)))",
		})
	}

	// Nested expert+tensor parallel: split experts across we groups and
	// the expert's hidden dimension across wt devices inside each group.
	// Discovered by the paper for MoE-1.3B on larger clusters: "further
	// sharding the feedforward network within an expert layer".
	if E < ws && ws%E == 0 {
		wt := int(ws / E)
		hidden := weight.Shape[2]
		if hidden%int64(wt) == 0 {
			specs := replicatedSpecs(gn)
			for i, t := range gn.Weights {
				if t.Shape.Rank() == 3 && t.Shape[0] == E {
					specs[i] = Split(0)
				}
			}
			out = append(out, &Pattern{
				Name:              "expert-tensor-parallel",
				W:                 w,
				In:                Split(0),
				Out:               Split(0),
				WeightSpecs:       specs,
				FLOPsPerDev:       gn.ForwardFLOPs() / ws,
				WeightBytesPerDev: gn.WeightBytes() / ws,
				OutBytesPerDev:    gn.OutBytes() / int64(E),
				FwdComm:           []comm.Event{{Kind: comm.AllReduce, Bytes: anchorOut.Bytes() / E, W: wt}},
				BwdComm:           []comm.Event{{Kind: comm.AllReduce, Bytes: anchorIn.Bytes() / E, W: wt}},
				SRC:               "Out = S0(CAR(BatchMatMul(S0(In),S0(S2(W)))))",
			})
		}
	}
	return out
}

// dispatchPatterns enumerates MoE token-routing implementations. The
// interesting ones convert a batch-split or replicated token layout into
// an expert-split capacity layout; crossing devices costs an all-to-all.
func dispatchPatterns(gn *GraphNode, w int) []*Pattern {
	outT := gn.OutTensors[0]
	ws := int64(w)
	out := []*Pattern{replicatePattern(gn, w)}

	// Local dispatch under data parallelism: each device routes its own
	// batch shard into local capacity slots.
	if outT.Shape.Divisible(1, ws) && batchDivisible(gn, w) {
		out = append(out, &Pattern{
			Name:           "dp-local",
			W:              w,
			In:             Split(0),
			Out:            Split(1),
			WeightSpecs:    replicatedSpecs(gn),
			FLOPsPerDev:    gn.ForwardFLOPs() / ws,
			OutBytesPerDev: gn.OutBytes() / ws,
			SRC:            "Out = S1(Dispatch(S0(In)))",
		})
	}

	// All-to-all from a batch split to an expert split (the GShard path).
	if outT.Shape.Divisible(0, ws) {
		if batchDivisible(gn, w) {
			out = append(out, &Pattern{
				Name:           "alltoall",
				W:              w,
				In:             Split(0),
				Out:            Split(0),
				WeightSpecs:    replicatedSpecs(gn),
				FLOPsPerDev:    gn.ForwardFLOPs() / ws,
				OutBytesPerDev: gn.OutBytes() / ws,
				FwdComm:        []comm.Event{{Kind: comm.AllToAll, Bytes: outT.Bytes(), W: w}},
				BwdComm:        []comm.Event{{Kind: comm.AllToAll, Bytes: outT.Bytes(), W: w}},
				SRC:            "Out = S0(CA2A(Dispatch(S0(In))))",
			})
		}
		// From replicated activations each device slices its experts'
		// tokens locally — no communication.
		out = append(out, &Pattern{
			Name:           "slice-experts",
			W:              w,
			In:             Replicated(),
			Out:            Split(0),
			WeightSpecs:    replicatedSpecs(gn),
			FLOPsPerDev:    gn.ForwardFLOPs() / ws,
			OutBytesPerDev: gn.OutBytes() / ws,
			SRC:            "Out = S0(Dispatch(R(In)))",
		})
	}
	return out
}

// combinePatterns enumerates the inverse of dispatch: merging expert
// outputs back to token order.
func combinePatterns(gn *GraphNode, w int) []*Pattern {
	inT := gn.InTensors[0] // expert output (E, cap, d)
	outT := gn.OutTensors[0]
	ws := int64(w)
	repl := Replicated()
	out := []*Pattern{replicatePattern(gn, w)}

	if inT.Shape.Divisible(1, ws) && outT.Shape.Divisible(0, ws) {
		out = append(out, &Pattern{
			Name:           "dp-local",
			W:              w,
			In:             Split(1),
			In2:            &repl,
			Out:            Split(0),
			WeightSpecs:    replicatedSpecs(gn),
			FLOPsPerDev:    gn.ForwardFLOPs() / ws,
			OutBytesPerDev: gn.OutBytes() / ws,
			SRC:            "Out = S0(Combine(S1(In)))",
		})
	}
	if inT.Shape.Divisible(0, ws) {
		if outT.Shape.Divisible(0, ws) {
			out = append(out, &Pattern{
				Name:           "alltoall",
				W:              w,
				In:             Split(0),
				In2:            &repl,
				Out:            Split(0),
				WeightSpecs:    replicatedSpecs(gn),
				FLOPsPerDev:    gn.ForwardFLOPs() / ws,
				OutBytesPerDev: gn.OutBytes() / ws,
				FwdComm:        []comm.Event{{Kind: comm.AllToAll, Bytes: inT.Bytes(), W: w}},
				BwdComm:        []comm.Event{{Kind: comm.AllToAll, Bytes: inT.Bytes(), W: w}},
				SRC:            "Out = S0(Combine(CA2A(S0(In))))",
			})
		}
		// Gather expert shards back to a replicated token tensor: each
		// device holds some experts' outputs; an all-reduce scatter-adds
		// them into the full activation.
		out = append(out, &Pattern{
			Name:           "gather-experts",
			W:              w,
			In:             Split(0),
			In2:            &repl,
			Out:            Replicated(),
			WeightSpecs:    replicatedSpecs(gn),
			FLOPsPerDev:    gn.ForwardFLOPs() / ws,
			OutBytesPerDev: gn.OutBytes(),
			FwdComm:        []comm.Event{{Kind: comm.AllReduce, Bytes: outT.Bytes(), W: w}},
			SRC:            "Out = CAR(Combine(S0(In)))",
		})
	}
	return out
}

// gluePatterns enumerates the layouts a weight-free (or norm-weight-only)
// node can carry. Glue nodes make no sharding decision: for every
// candidate input layout that survives symbolic propagation through the
// member ops, one pattern records the induced output layout.
func gluePatterns(gn *GraphNode, w int) []*Pattern {
	var out []*Pattern
	out = append(out, replicatePattern(gn, w))

	inShape := gn.InShape()
	if inShape == nil {
		return out
	}
	ws := int64(w)
	for axis := 0; axis < inShape.Rank(); axis++ {
		if !inShape.Divisible(axis, ws) {
			continue
		}
		spec := Split(axis)
		cur := spec
		ok := true
		var err error
		for _, op := range gn.Ops {
			if cur, ok, err = PropagateSpec(op, cur); err != nil || !ok {
				break
			}
		}
		if err != nil || !ok {
			continue
		}
		name := "pass-split0"
		if axis != 0 {
			name = "pass-split" + string(rune('0'+axis))
		}
		p := &Pattern{
			Name:              name,
			W:                 w,
			In:                spec,
			Out:               cur,
			WeightSpecs:       replicatedSpecs(gn),
			FLOPsPerDev:       gn.ForwardFLOPs() / ws,
			WeightBytesPerDev: gn.WeightBytes(),
			OutBytesPerDev:    gn.OutBytes() / ws,
			SRC:               "Out = " + cur.String() + "(" + gn.Kind.String() + "(" + spec.String() + "(In)))",
		}
		// Norm weights under a batch split need gradient synchronization,
		// exactly like any data-parallel weight.
		if axis == 0 && gn.WeightBytes() > 0 {
			p.BwdComm = []comm.Event{{Kind: comm.AllReduce, Bytes: gn.WeightBytes(), W: w}}
		}
		out = append(out, p)
	}
	return out
}
