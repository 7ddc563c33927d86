package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/strategy"
)

// Figure5 reproduces the profiling motivation for the cost model: the
// computation/communication time breakdown of four tensor-parallel plans
// of T5-large on 8 and 16 workers. Inter-node communication should emerge
// as the dominant term at 16 workers.
func Figure5(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Figure 5: time breakdown for TP schedules of T5-large")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "plan", "compute", "comm", "iter")

	plans := []string{"DataParallel", "MHA-only", "FFN-only", "Megatron"}
	for _, workers := range []int{8, 16} {
		mc := models.T5Sized("770M") // fixed global batch, as profiled
		gg, err := groupGraph(models.T5(mc))
		if err != nil {
			return err
		}
		cl := cluster.V100GPUs(workers)
		fmt.Fprintf(w, "-- %dw --\n", workers)
		for _, plan := range plans {
			s, err := planBy(plan, gg, cl)
			if err != nil {
				return err
			}
			r := simulate(s, cl)
			fmt.Fprintf(w, "%-14s %11.3fs %11.3fs %11.3fs\n",
				plan, r.ComputeFwd+r.ComputeBwd, r.CommExposed, r.IterationTime)
		}
	}
	return nil
}

// Figure7 reproduces the cross-framework throughput comparison on 8 GPUs
// with OOM marks: DP, DeepSpeed, Megatron (transformers), the Alpa-like
// searcher and TAPAS across every model-size scaling point.
func Figure7(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Figure 7: throughput across frameworks on 8 GPUs (TFLOPS/GPU, × = OOM)")
	fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %10s\n",
		"model", "DP", "DeepSpeed", "Megatron", "Alpa", "TAPAS")

	sweep := map[string][]string{
		"ResNet":     {"resnet-26M", "resnet-44M", "resnet-228M", "resnet-536M", "resnet-843M"},
		"T5":         {"t5-100M", "t5-200M", "t5-300M", "t5-770M", "t5-1.4B"},
		"GShard-MoE": {"moe-380M", "moe-690M", "moe-1.3B", "moe-2.4B"},
	}
	if cfg.Quick {
		sweep = map[string][]string{
			"ResNet":     {"resnet-228M", "resnet-843M"},
			"T5":         {"t5-100M", "t5-770M"},
			"GShard-MoE": {"moe-380M", "moe-1.3B"},
		}
	}
	cl := cluster.V100x8()
	for _, fam := range []string{"ResNet", "T5", "GShard-MoE"} {
		fmt.Fprintf(w, "-- %s --\n", fam)
		for _, name := range sweep[fam] {
			gg, err := groupedModel(name)
			if err != nil {
				return err
			}
			cells := make([]string, 0, 5)
			for _, plan := range []string{"DataParallel", "DeepSpeed", "Megatron"} {
				if plan == "Megatron" && fam != "T5" {
					cells = append(cells, "-")
					continue
				}
				s, err := planBy(plan, gg, cl)
				if err != nil {
					return err
				}
				cells = append(cells, throughputCell(simulate(s, cl)))
			}
			as, _, err := alpaSearch(ctx, gg, cl, cfg)
			if err != nil {
				return err
			}
			cells = append(cells, throughputCell(simulate(as, cl)))
			ts, _, err := tapasSearch(ctx, gg, cl, cfg)
			if err != nil {
				return err
			}
			cells = append(cells, throughputCell(simulate(ts, cl)))
			fmt.Fprintf(w, "%-16s %10s %10s %10s %10s %10s\n",
				name, cells[0], cells[1], cells[2], cells[3], cells[4])
		}
	}
	return nil
}

// weakScaledGraph builds the Figure-8 models with the batch scaled
// linearly with the GPU count, keeping the per-GPU workload constant.
func weakScaledGraph(family string, gpus int) (*ir.GNGraph, error) {
	switch family {
	case "ResNet":
		mc := models.ResNetSized("843M")
		mc.Batch = int64(8 * gpus)
		return groupGraph(models.ResNet(mc))
	case "T5":
		mc := models.T5Sized("770M")
		mc.Batch = int64(2 * gpus)
		return groupGraph(models.T5(mc))
	case "GShard-MoE":
		mc := models.MoESized("1.3B")
		mc.Batch = int64(2 * gpus)
		return groupGraph(models.MoE(mc))
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", family)
	}
}

// Figure8 reproduces weak scaling from 1 to 32 GPUs: TensorFlow-style
// data parallelism against TAPAS with exhaustive search (ES, under a time
// budget like the paper's 120-minute cap) and TAPAS with subgraph pruning
// (GP).
func Figure8(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Figure 8: weak scaling (iteration time, × = OOM)")
	fmt.Fprintf(w, "%-12s %6s %10s %10s %10s\n", "family", "GPUs", "DP", "TAPAS-ES", "TAPAS-GP")

	gpuSweep := []int{1, 4, 8, 16, 24, 32}
	esBudget := 30 * time.Second
	if cfg.Quick {
		gpuSweep = []int{1, 8, 16}
		esBudget = 2 * time.Second
	}
	for _, fam := range []string{"ResNet", "T5", "GShard-MoE"} {
		for _, gpus := range gpuSweep {
			gg, err := weakScaledGraph(fam, gpus)
			if err != nil {
				return err
			}
			cl := cluster.V100GPUs(gpus)
			model := cost.Default(cl)

			dp, err := baselines.DataParallel(gg, gpus, model)
			if err != nil {
				return err
			}
			dpCell := iterCell(simulate(dp, cl))

			esOpt := strategy.DefaultEnumOptions(gpus)
			esOpt.MaxCandidates = 1 << 15
			esOpt.TimeBudget = esBudget
			esOpt.Workers = cfg.Workers
			es, _, err := strategy.SearchExhaustive(ctx, gg, model, esOpt, cl.MemoryPerGP)
			esCell := "budget"
			if err == nil {
				esCell = iterCell(simulate(es, cl))
			}

			gp, _, err := tapasSearch(ctx, gg, cl, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %6d %10s %10s %10s\n",
				fam, gpus, dpCell, esCell, iterCell(simulate(gp, cl)))
		}
	}
	return nil
}

// Figure9 visualizes the discovered sharding strategies of a transformer
// layer the way the paper draws them: per-projection markers for
// column-wise parallel (C), row-wise parallel (R), replicated (*) and
// batch-split (B) weights.
func Figure9(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Figure 9: visualization of sharding strategies (one transformer layer)")
	fmt.Fprintln(w, "# markers: C = column-split, R = row-split, * = replicate, B = batch-split(DP)")
	fmt.Fprintf(w, "%-14s %3s %3s %3s %4s | %3s %5s\n", "plan", "Q", "K", "V", "Out", "Up", "Down")

	gg, err := groupedModel("t5-100M")
	if err != nil {
		return err
	}
	cl := cluster.V100x8()

	mark := func(p *ir.Pattern) string {
		switch p.Name {
		case "column-parallel", "column-gather":
			return "C"
		case "row-parallel":
			return "R"
		case "data-parallel":
			return "B"
		default:
			return "*"
		}
	}

	// layerCells marks each role of one layer by the pattern of the
	// role's first node in GraphNode.ID order.
	layerCells := func(s *strategy.Strategy, layer string) map[baselines.Role]string {
		cells := map[baselines.Role]string{}
		for _, gn := range s.Graph.Nodes {
			if gn.Layer != layer {
				continue
			}
			r := baselines.Classify(gn)
			if _, ok := cells[r]; !ok {
				cells[r] = mark(s.Assign[gn.ID])
			}
		}
		return cells
	}

	render := func(name string, s *strategy.Strategy) {
		cells := layerCells(s, "enc.0")
		fmt.Fprintf(w, "%-14s %3s %3s %3s %4s | %3s %5s\n", name,
			cells[baselines.RoleQKV], cells[baselines.RoleQKV], cells[baselines.RoleQKV],
			cells[baselines.RoleAttnOut], cells[baselines.RoleFFNUp], cells[baselines.RoleFFNDown])
	}

	for _, plan := range []string{"DataParallel", "MHA-only", "FFN-only", "Megatron"} {
		s, err := planBy(plan, gg, cl)
		if err != nil {
			return err
		}
		render(plan, s)
	}
	ts, _, err := tapasSearch(ctx, gg, cl, cfg)
	if err != nil {
		return err
	}
	render("TAPAS(small)", ts)

	// On the largest T5, replicated-weight plans exceed device memory and
	// TAPAS is forced into the tensor-sharded regime — the discovered
	// plans of the paper's Figure 9.
	if !cfg.Quick {
		big, err := groupedModel("t5-1.4B")
		if err != nil {
			return err
		}
		tb, _, err := tapasSearch(ctx, big, cl, cfg)
		if err != nil {
			return err
		}
		// The memory-constrained plan mixes data-parallel and
		// tensor-sharded layers; draw the first sharded one.
		layer := "enc.0"
		for _, gn := range big.Nodes {
			if tb.Assign[gn.ID].Name == "column-parallel" && gn.Layer != "" {
				layer = gn.Layer
				break
			}
		}
		cells := layerCells(tb, layer)
		fmt.Fprintf(w, "%-14s %3s %3s %3s %4s | %3s %5s   (sharded layer %s of the mixed plan)\n",
			"TAPAS(1.4B)",
			cells[baselines.RoleQKV], cells[baselines.RoleQKV], cells[baselines.RoleQKV],
			cells[baselines.RoleAttnOut], cells[baselines.RoleFFNUp], cells[baselines.RoleFFNDown], layer)
	}
	return nil
}
