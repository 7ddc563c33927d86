package experiments

import (
	"context"
	"fmt"
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
	archs := append(append([]string{}, sizeSweep["T5"]...), sizeSweep["ResNet"]...)
	return append(append(archs, "resnet152-100K"), sizeSweep["GShard-MoE"]...)
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

	for _, x := range baselines.Experts {
		s, err := x.Plan(gg, w, model)
		if err := add(x.Key, s, err); err != nil {
			return nil, err
		}
	}
	s, err := channelParallel(gg, w, model)
	if err := add("Channel", s, err); err != nil {
		return nil, err
	}
	ts, _, _, err := tapasSearch(ctx, gg, cl, cfg)
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
		// indexed by GraphNode.ID. add fails only on a planner's error.
		if s, err := strategy.New(gg, c.Patterns, w, true, model); err == nil {
			add(fmt.Sprintf("enum-%02d", i), s, nil)
		}
	}

	// Compute-equivalence filter: keep candidates within 3% of the
	// lowest per-device compute so the comm model is the deciding factor.
	flops := map[string]int64{}
	minFlops := int64(math.MaxInt64)
	for name, s := range out {
		for _, p := range s.Assign {
			flops[name] += p.FLOPsPerDev
		}
		minFlops = min(minFlops, flops[name])
	}
	for name := range out {
		if float64(flops[name]) > 1.03*float64(minFlops) {
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
func Table2(ctx context.Context, cfg Config) (*Table, error) {
	archs := table2Architectures(cfg)
	cl := cluster.V100Nodes(2) // 16 GPUs: comm terms matter across nodes
	tab := &Table{
		Heading: []string{
			"Table 2: ablation of cost-model optimizations",
			fmt.Sprintf("over %d architectures, %d GPUs", len(archs), cl.TotalGPUs())},
		Columns: []Column{{"variant", -12}, {"Acc@1", 8}, {"Acc@5", 8}, {"MRR", 8}}}

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

	// Per variant: how often the ground-truth best ranks first, in the
	// top five, and the sum of its reciprocal ranks, over n architectures.
	acc1, acc5, rrSum := make([]float64, len(variants)), make([]float64, len(variants)), make([]float64, len(variants))
	n := 0

	for _, arch := range archs {
		gg, err := groupedModel(arch)
		if err != nil {
			return tab, err
		}
		cands, err := table2Candidates(ctx, gg, cl, cfg)
		if err != nil {
			return tab, fmt.Errorf("%s: %w", arch, err)
		}
		if len(cands) < 2 {
			continue
		}

		// Ground truth: simulated iteration time (OOM = infinitely bad).
		truth := map[string]float64{}
		for name, s := range cands {
			r := sim.Run(s, sim.DefaultConfig(cl))
			truth[name] = r.IterationTime
			if r.OOM {
				truth[name] = math.Inf(1)
			}
		}
		best := ""
		for name := range truth {
			if rankOf(truth, name) == 1 {
				best = name
			}
		}

		n++
		for vi, v := range variants {
			scores := map[string]float64{}
			for name, s := range cands {
				scores[name] = v.model.StrategyCost(s.Assign, s.Reshard).Total()
			}
			rank := rankOf(scores, best)
			rrSum[vi] += 1 / float64(rank)
			if rank == 1 {
				acc1[vi]++
			}
			if rank <= 5 {
				acc5[vi]++
			}
		}
	}

	for vi := range variants {
		if n > 0 {
			tab.add("", text(variants[vi].name), num("%.2f", acc1[vi]/float64(n)),
				num("%.2f", acc5[vi]/float64(n)), num("%.2f", rrSum[vi]/float64(n)))
		}
	}
	return tab, nil
}
