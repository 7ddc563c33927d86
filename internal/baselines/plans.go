// Package baselines implements the comparison systems of the paper's
// evaluation: the expert-engineered parallel plans (data parallelism,
// Megatron-LM tensor parallelism, the FFN-only / MHA-only ablations of
// Figure 9, DeepSpeed-style ZeRO-2, GShard expert parallelism) and the
// search-based auto-parallel baselines (an Alpa-like two-level search and
// a FlexFlow-like MCMC search) whose complexity classes follow Table 1.
package baselines

import (
	"fmt"
	"strings"

	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// Role classifies a GraphNode for the expert plans, which — unlike TAPAS —
// are allowed to know what each layer is.
type Role int

const (
	// RoleOther covers glue and anything unclassified.
	RoleOther Role = iota
	// RoleQKV is an attention query/key/value projection.
	RoleQKV
	// RoleAttnOut is the attention output projection.
	RoleAttnOut
	// RoleFFNUp is the feed-forward up projection.
	RoleFFNUp
	// RoleFFNDown is the feed-forward down projection.
	RoleFFNDown
	// RoleHead is a classification / LM head.
	RoleHead
	// RoleEmbed is an embedding lookup.
	RoleEmbed
	// RoleConv is a convolution.
	RoleConv
	// RoleExpert is an MoE expert matmul.
	RoleExpert
	// RoleDispatch and RoleCombine are the MoE routing boundaries.
	RoleDispatch
	// RoleCombine merges expert outputs.
	RoleCombine
)

// Classify derives the role from the GraphNode kind and anchor name. The
// model builders name operators the way the corresponding TF layers would
// (self_attn_q, ffn_up, lm_head, fc…), which is exactly the knowledge an
// expert encoding Megatron's plan relies on.
func Classify(gn *ir.GraphNode) Role {
	switch gn.Kind {
	case ir.KEmbedding:
		return RoleEmbed
	case ir.KConv:
		return RoleConv
	case ir.KExpert:
		return RoleExpert
	case ir.KDispatch:
		return RoleDispatch
	case ir.KCombine:
		return RoleCombine
	}
	if gn.Anchor == nil {
		return RoleOther
	}
	name := gn.Anchor.Name
	switch {
	case strings.Contains(name, "_q_") || strings.Contains(name, "_k_") || strings.Contains(name, "_v_"):
		return RoleQKV
	case strings.Contains(name, "attn_out"):
		return RoleAttnOut
	case strings.Contains(name, "ffn_up"):
		return RoleFFNUp
	case strings.Contains(name, "ffn_down"):
		return RoleFFNDown
	case strings.Contains(name, "lm_head") || strings.HasPrefix(name, "fc_"):
		return RoleHead
	default:
		return RoleOther
	}
}

// PlanFunc maps a role to the preferred pattern names, most preferred
// first; the empty list means "propagate whatever the producers provide".
type PlanFunc func(Role) []string

// BuildPlan constructs a strategy from a role→pattern rule: nodes are
// assigned in topological order, taking the first preferred pattern that
// is boundary-compatible with the already-assigned producers, and falling
// back to layout propagation when the rule is silent or unsatisfiable.
func BuildPlan(g *ir.GNGraph, w int, model *cost.Model, rule PlanFunc) (*strategy.Strategy, error) {
	assign := make([]*ir.Pattern, len(g.Nodes))

	compatible := func(gn *ir.GraphNode, p *ir.Pattern) bool {
		for _, pred := range g.Preds(gn) {
			pf := assign[pred.ID]
			if pf == nil {
				continue
			}
			if _, ok := strategy.CheckEdge(g, pred, gn, pf, p, w, true); !ok {
				return false
			}
		}
		return true
	}

	for _, gn := range g.TopoOrder() {
		menu := ir.PatternsFor(gn, w)
		var chosen *ir.Pattern
		for _, want := range rule(Classify(gn)) {
			for _, p := range menu {
				if p.Name == want && compatible(gn, p) {
					chosen = p
					break
				}
			}
			if chosen != nil {
				break
			}
		}
		if chosen == nil {
			// Propagation fallback: cheapest compatible pattern.
			for _, p := range menu {
				if compatible(gn, p) {
					if chosen == nil || model.PatternCost(p).Total() < model.PatternCost(chosen).Total() {
						chosen = p
					}
				}
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("baselines: no compatible pattern for %v", gn)
		}
		assign[gn.ID] = chosen
	}
	return strategy.New(g, assign, w, true, model)
}

// DataParallel replicates every weight and splits the batch — the
// TensorFlow-DP baseline of Figures 7 and 8.
func DataParallel(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return BuildPlan(g, w, model, func(Role) []string {
		return []string{"data-parallel", "pass-split0", "dp-local", "capacity-parallel", "replicate"}
	})
}

// Megatron shards both attention (column QKV, row output) and the FFN
// (column up, row down), with vocabulary-parallel embeddings — the
// expert-engineered plan of Figure 9.
func Megatron(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return BuildPlan(g, w, model, func(r Role) []string {
		switch r {
		case RoleQKV:
			return []string{"column-parallel"}
		case RoleAttnOut:
			return []string{"row-parallel"}
		case RoleFFNUp:
			return []string{"column-parallel"}
		case RoleFFNDown:
			return []string{"row-parallel"}
		case RoleEmbed:
			return []string{"vocab-parallel"}
		case RoleHead:
			return []string{"column-parallel", "column-gather"}
		default:
			return nil
		}
	})
}

// FFNOnly shards only the feed-forward network and replicates attention —
// the novel strategy TAPAS discovers for dense transformers.
func FFNOnly(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return BuildPlan(g, w, model, func(r Role) []string {
		switch r {
		case RoleFFNUp:
			return []string{"column-parallel"}
		case RoleFFNDown:
			return []string{"row-parallel"}
		case RoleQKV, RoleAttnOut, RoleEmbed:
			return []string{"replicate"}
		case RoleHead:
			return []string{"column-parallel"}
		default:
			return nil
		}
	})
}

// MHAOnly shards only the attention module — the complementary ablation.
func MHAOnly(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return BuildPlan(g, w, model, func(r Role) []string {
		switch r {
		case RoleQKV:
			return []string{"column-parallel"}
		case RoleAttnOut:
			return []string{"row-parallel"}
		case RoleFFNUp, RoleFFNDown, RoleEmbed:
			return []string{"replicate"}
		case RoleHead:
			return []string{"column-parallel"}
		default:
			return nil
		}
	})
}

// GShardExpert is the original GShard MoE plan: batch-parallel dense
// parts, all-to-all token routing, experts sharded across devices.
func GShardExpert(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return BuildPlan(g, w, model, func(r Role) []string {
		switch r {
		case RoleDispatch, RoleCombine:
			return []string{"alltoall"}
		case RoleExpert:
			return []string{"expert-parallel", "expert-tensor-parallel"}
		default:
			return []string{"data-parallel", "pass-split0", "replicate"}
		}
	})
}

// DeepSpeed is ZeRO-2 data parallelism: the DP plan with gradients and
// optimizer state sharded across workers. Memory drops to full weights
// plus 3/w of the training state; the gradient all-reduce becomes a
// reduce-scatter plus a parameter all-gather, increasing the number and
// size of messages — the behaviour the paper observes hurting DeepSpeed on
// convolutional backbones.
func DeepSpeed(g *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	s, err := DataParallel(g, w, model)
	if err != nil {
		return nil, err
	}
	var weightBytes, actBytes int64
	for _, gn := range g.Nodes {
		shared := s.Assign[gn.ID]
		weightBytes += gn.WeightBytes() // DP keeps weights unsharded
		actBytes += shared.OutBytesPerDev
		// Rewrite the gradient synchronization of every weight-bearing
		// node: AR(grads) in the backward pass becomes RS(grads) there,
		// plus an AG of the updated parameters that lands in the next
		// forward pass where nothing hides it — the extra exposed
		// messages the paper observes hurting DeepSpeed on convolutional
		// backbones. The pattern comes from the shared PatternsFor memo,
		// so rewrite a private clone, never the shared instance.
		p := shared.Clone()
		var bwd []comm.Event
		for _, e := range p.BwdComm {
			if e.Kind == comm.AllReduce {
				bwd = append(bwd, comm.Event{Kind: comm.ReduceScatter, Bytes: e.Bytes, W: e.W})
				p.FwdComm = append(p.FwdComm, comm.Event{Kind: comm.AllGather, Bytes: e.Bytes, W: e.W})
			} else {
				bwd = append(bwd, e)
			}
		}
		p.BwdComm = bwd
		s.Assign[gn.ID] = p
	}
	// weights (1×) + gradients/w + two Adam moments/w + activations.
	s.MemPerDev = weightBytes + 3*weightBytes/int64(w) + actBytes
	s.Cost = model.StrategyCost(s.Assign, s.Reshard)
	return s, nil
}
