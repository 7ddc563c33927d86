package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/sim"
	"tapas/internal/strategy"
)

// table2Architectures is the paper's ablation pool: 5× T5, 6× CNN, 4× MoE.
func table2Architectures(cfg Config) []string {
	if cfg.Quick {
		return []string{"t5-100M", "t5-200M", "resnet-26M", "resnet-228M", "moe-380M", "moe-690M"}
	}
	return []string{
		"t5-100M", "t5-200M", "t5-300M", "t5-770M", "t5-1.4B",
		"resnet-26M", "resnet-44M", "resnet-228M", "resnet-536M", "resnet-843M", "resnet152-100K",
		"moe-380M", "moe-690M", "moe-1.3B", "moe-2.4B",
	}
}

// channelParallel is an extra CNN candidate: alternating output/input
// channel splits across the convolution chain.
func channelParallel(gg *ir.GNGraph, w int, model *cost.Model) (*strategy.Strategy, error) {
	return baselines.BuildPlan(gg, w, model, func(r baselines.Role) []string {
		switch r {
		case baselines.RoleConv:
			return []string{"outchannel-parallel", "inchannel-parallel"}
		case baselines.RoleHead:
			return []string{"column-parallel"}
		default:
			return nil
		}
	})
}

// table2Candidates builds the ranking pool for one model: the named
// expert plans plus a set of enumerated strategies, restricted to
// candidates with equivalent compute reduction (within 3% of the lowest
// per-device FLOPs). Comparing communication models only makes sense "with
// the same amount of compute reduction", as the paper puts it — and the
// near-ties among such candidates are exactly where the CF/GO/EC
// refinements decide the ranking.
func table2Candidates(ctx context.Context, gg *ir.GNGraph, cl *cluster.Cluster, cfg Config) (map[string]*strategy.Strategy, error) {
	model := cost.Default(cl)
	w := cl.TotalGPUs()
	out := map[string]*strategy.Strategy{}
	add := func(name string, s *strategy.Strategy, err error) error {
		if err != nil {
			return err
		}
		// Drop duplicates: planners that degenerate to an existing plan
		// (e.g. Megatron on a CNN) would double-count one strategy.
		for _, prev := range out {
			if prev.Describe() == s.Describe() {
				return nil
			}
		}
		out[name] = s
		return nil
	}

	planners := []struct {
		name string
		run  func(*ir.GNGraph, int, *cost.Model) (*strategy.Strategy, error)
	}{
		{"DP", baselines.DataParallel},
		{"DeepSpeed", baselines.DeepSpeed},
		{"Megatron", baselines.Megatron},
		{"FFN-only", baselines.FFNOnly},
		{"MHA-only", baselines.MHAOnly},
		{"GShard", baselines.GShardExpert},
		{"Channel", channelParallel},
	}
	for _, pl := range planners {
		s, err := pl.run(gg, w, model)
		if err := add(pl.name, s, err); err != nil {
			return nil, err
		}
	}
	ts, _, err := tapasSearch(ctx, gg, cl, cfg)
	if err := add("TAPAS", ts, err); err != nil {
		return nil, err
	}

	// Enumerated candidates: a diverse sample of complete valid plans.
	opt := strategy.DefaultEnumOptions(w)
	opt.MaxCandidates = 1024
	opt.TopK = 48
	opt.Workers = cfg.Workers
	cands, _ := strategy.EnumerateInstance(ctx, gg, gg.TopoOrder(), model, opt)
	if err := ctx.Err(); err != nil {
		return nil, err // a truncated candidate pool would skew the metrics
	}
	for i, c := range cands {
		// The instance is gg.TopoOrder(), so c.Patterns is already
		// indexed by GraphNode.ID.
		s, err := strategy.New(gg, c.Patterns, w, true, model)
		if err != nil {
			continue
		}
		if err := add(fmt.Sprintf("enum-%02d", i), s, nil); err != nil {
			return nil, err
		}
	}

	// Compute-equivalence filter: keep candidates within 3% of the
	// lowest per-device compute so the comm model is the deciding factor.
	minFlops := int64(math.MaxInt64)
	flopsOf := func(s *strategy.Strategy) int64 {
		var f int64
		for _, p := range s.Assign {
			f += p.FLOPsPerDev
		}
		return f
	}
	for _, s := range out {
		if f := flopsOf(s); f < minFlops {
			minFlops = f
		}
	}
	for name, s := range out {
		if float64(flopsOf(s)) > 1.03*float64(minFlops) {
			delete(out, name)
		}
	}
	return out, nil
}

// Table2 reproduces the cost-model ablation: for each architecture the
// candidate strategies are ranked by four cost-model variants (vanilla
// α–β baseline, +constant filter, +gradient overlap, +collective
// efficiency) and compared against the simulator's ground-truth ranking
// via Accuracy@1, Accuracy@5 and mean reciprocal rank.
func Table2(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Table 2: ablation of cost-model optimizations")

	archs := table2Architectures(cfg)
	cl := cluster.V100Nodes(2) // 16 GPUs: comm terms matter across nodes

	// All variants share the same compute estimate; the ablation isolates
	// the communication-model refinements CF, GO and EC (Table 2's rows).
	variants := []struct {
		name  string
		model *cost.Model
	}{
		{"Baseline", cost.Baseline(cl)},
		{"+CF", cost.WithCF(cl)},
		{"+CF+GO", cost.WithCFGO(cl)},
		{"+CF+GO+EC", cost.Default(cl)},
	}

	type outcome struct {
		acc1, acc5, rrSum float64
		n                 int
	}
	results := make([]outcome, len(variants))

	for _, arch := range archs {
		gg, err := groupedModel(arch)
		if err != nil {
			return err
		}
		cands, err := table2Candidates(ctx, gg, cl, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", arch, err)
		}
		if len(cands) < 2 {
			continue
		}

		// Ground truth: simulated iteration time (OOM = infinitely bad).
		truth := map[string]float64{}
		for name, s := range cands {
			r := sim.Run(s, sim.DefaultConfig(cl))
			t := r.IterationTime
			if r.OOM {
				t = math.Inf(1)
			}
			truth[name] = t
		}
		best := ""
		for name, t := range truth {
			if best == "" || t < truth[best] || (t == truth[best] && name < best) {
				best = name
			}
		}

		for vi, v := range variants {
			scores := map[string]float64{}
			for name, s := range cands {
				scores[name] = v.model.StrategyCost(s.Assign, s.Reshard).Total()
			}
			rank := rankOf(scores, best)
			results[vi].n++
			results[vi].rrSum += 1 / float64(rank)
			if rank == 1 {
				results[vi].acc1++
			}
			if rank <= 5 {
				results[vi].acc5++
			}
		}
	}

	fmt.Fprintf(w, "%-12s %8s %8s %8s   (over %d architectures, %d GPUs)\n",
		"variant", "Acc@1", "Acc@5", "MRR", len(archs), cl.TotalGPUs())
	for vi, v := range variants {
		r := results[vi]
		if r.n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f\n",
			v.name, r.acc1/float64(r.n), r.acc5/float64(r.n), r.rrSum/float64(r.n))
	}
	return nil
}
