// Package reconstruct implements the Graph Reconstructor (Figure 2, final
// step): it materializes the winning parallel strategy back into a
// computational graph — the per-device view a training framework backend
// would execute, with sharded tensor shapes and explicit collective
// operators in place of each ShardingPattern's SRC expression.
package reconstruct

import (
	"fmt"

	"tapas/internal/comm"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// ParallelGraph is the materialized strategy.
type ParallelGraph struct {
	// PerDevice is the computational graph one device executes: original
	// operators with sharded shapes plus inserted collectives.
	PerDevice *graph.Graph
	// Collectives lists the inserted communication operators in order.
	Collectives []*graph.Node
	// Strategy is the plan this graph materializes.
	Strategy *strategy.Strategy
}

// collectiveKind maps a comm.Kind onto the graph operator vocabulary.
func collectiveKind(k comm.Kind) (graph.OpKind, bool) {
	switch k {
	case comm.AllReduce:
		return graph.OpAllReduce, true
	case comm.AllGather:
		return graph.OpAllGather, true
	case comm.ReduceScatter:
		return graph.OpReduceScatter, true
	case comm.AllToAll:
		return graph.OpAllToAll, true
	default:
		return graph.OpIdentity, false
	}
}

// collective decides whether Reconstruct emits communication event e,
// and as which operator. A forward collective consumes its compute op's
// first per-device output, so it needs one (hasInput); a resharding
// event brings its own exchange buffer. Reconstruct and Count both ask
// here, so the counts never drift from the graph.
func collective(e comm.Event, hasInput bool) (graph.OpKind, bool) {
	ck, ok := collectiveKind(e.Kind)
	return ck, ok && hasInput
}

// Count returns the sizes of the graph Reconstruct(s) would build —
// len(PerDevice.Nodes) and len(Collectives) — without building it: one
// compute op per GraphNode plus each emitted collective. It allocates
// nothing, and fails on an unassigned node as Reconstruct does.
func Count(s *strategy.Strategy) (nodes, collectives int, err error) {
	for _, gn := range s.Graph.TopoOrder() {
		p := s.Assign[gn.ID]
		if p == nil {
			return 0, 0, unassigned(gn)
		}
		for _, e := range p.FwdComm {
			if _, ok := collective(e, len(gn.OutTensors) > 0); ok {
				collectives++
			}
		}
	}
	for _, e := range s.Reshard {
		if _, ok := collective(e, true); ok {
			collectives++
		}
	}
	return len(s.Graph.Nodes) + collectives, collectives, nil
}

// unassigned is the error for a node without a pattern.
func unassigned(gn *ir.GraphNode) error {
	return fmt.Errorf("reconstruct: node %v unassigned", gn)
}

// shardShape divides the spec'd axis of a shape by w when divisible.
func shardShape(s graph.Shape, spec ir.ShardSpec, w int64) graph.Shape {
	if spec.IsReplicated() || spec.Axis >= s.Rank() || !s.Divisible(spec.Axis, w) {
		return s.Clone()
	}
	return s.Split(spec.Axis, w)
}

// Reconstruct materializes a strategy into the per-device graph. Each
// GraphNode contributes one fused compute operator whose input, weight and
// output tensors carry the sharded shapes implied by its pattern, preceded
// and followed by the pattern's forward collectives; strategy-level
// resharding events are appended at the end of the op stream they follow.
func Reconstruct(s *strategy.Strategy) (*ParallelGraph, error) {
	w := int64(s.W)
	b := graph.NewBuilder(s.Graph.Src.Name + "-parallel")
	out := &ParallelGraph{Strategy: s}

	// Map original boundary tensors to their per-device counterparts.
	lowered := make(map[*graph.Tensor]*graph.Tensor)

	lower := func(t *graph.Tensor, spec ir.ShardSpec) *graph.Tensor {
		if lt, ok := lowered[t]; ok {
			return lt
		}
		lt := graph.NewTensor(t.Name+"_dev", t.Kind, t.DType, shardShape(t.Shape, spec, w))
		lowered[t] = lt
		return lt
	}

	for _, gn := range s.Graph.TopoOrder() {
		p := s.Assign[gn.ID]
		if p == nil {
			return nil, unassigned(gn)
		}

		// Per-device inputs: boundary activations with the pattern's
		// input layout; weights with their per-weight specs.
		var inputs []*graph.Tensor
		for i, t := range gn.InTensors {
			spec := p.In
			if i > 0 {
				spec = p.In2Spec()
			}
			inputs = append(inputs, lower(t, spec))
		}
		for i, wt := range gn.Weights {
			inputs = append(inputs, lower(wt, p.WeightSpecs[i]))
		}

		// Per-device outputs with the pattern's output layout.
		var outputs []*graph.Tensor
		for _, t := range gn.OutTensors {
			outputs = append(outputs, lower(t, p.Out))
		}

		kind := graph.OpIdentity
		name := gn.Kind.String()
		if gn.Anchor != nil {
			kind = gn.Anchor.Kind
			name = gn.Anchor.Name
		} else if len(gn.Ops) > 0 {
			kind = gn.Ops[0].Kind
			name = gn.Ops[0].Name
		}
		b.SetLayer(gn.Layer)
		b.OpMulti(kind, name+"_"+p.Name, inputs, outputs,
			map[string]int64{"graphnode": int64(gn.ID)})

		// Materialize the pattern's forward collectives right after the
		// compute op, consuming its first per-device output (the backward
		// collectives belong to the backward graph and are accounted by
		// the simulator).
		for _, e := range p.FwdComm {
			ck, ok := collective(e, len(outputs) > 0)
			if !ok {
				continue
			}
			cin := outputs[0]
			cout := graph.NewTensor(fmt.Sprintf("%s_%s_out", name, e.Kind), graph.Activation, graph.F32, cin.Shape.Clone())
			n := b.OpMulti(ck, fmt.Sprintf("%s_%s", name, e.Kind),
				[]*graph.Tensor{cin}, []*graph.Tensor{cout},
				map[string]int64{"workers": int64(e.W), "bytes": e.Bytes})
			out.Collectives = append(out.Collectives, n)
		}
	}

	// Strategy-level resharding collectives: standalone exchange buffers
	// fed by the runtime, not by an in-graph producer.
	for i, e := range s.Reshard {
		ck, ok := collective(e, true)
		if !ok {
			continue
		}
		shape := graph.NewShape(max(e.Bytes/4, 1))
		cin := graph.NewTensor(fmt.Sprintf("reshard_%d_buf", i), graph.Input, graph.F32, shape)
		cout := graph.NewTensor(fmt.Sprintf("reshard_%d_out", i), graph.Activation, graph.F32, shape)
		n := b.OpMulti(ck, fmt.Sprintf("reshard_%d_%s", i, e.Kind),
			[]*graph.Tensor{cin}, []*graph.Tensor{cout},
			map[string]int64{"workers": int64(e.W), "bytes": e.Bytes})
		out.Collectives = append(out.Collectives, n)
	}

	out.PerDevice = b.G
	return out, nil
}
