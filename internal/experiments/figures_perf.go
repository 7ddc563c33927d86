package experiments

import (
	"context"
	"fmt"
	"time"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/sim"
	"tapas/internal/strategy"
)

// Figure5 reproduces the profiling motivation for the cost model: the
// computation/communication time breakdown of four tensor-parallel plans
// of T5-large on 8 and 16 workers. Inter-node communication should emerge
// as the dominant term at 16 workers.
func Figure5(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 5: time breakdown for TP schedules of T5-large"},
		Columns: []Column{{"plan", -14}, {"compute", 12}, {"comm", 12}, {"iter", 12}}}
	for _, workers := range []int{8, 16} {
		mc := models.T5Sized("770M") // fixed global batch, as profiled
		gg, err := ir.Group(models.T5(mc))
		if err != nil {
			return tab, err
		}
		cl := cluster.V100GPUs(workers)
		for _, plan := range []string{"dp", "mha-only", "ffn-only", "megatron"} {
			label, s, err := planBy(plan, gg, cl)
			if err != nil {
				return tab, err
			}
			r := sim.Run(s, sim.DefaultConfig(cl))
			tab.add(fmt.Sprintf("%dw", workers), text(label), num("%.3fs", r.ComputeFwd+r.ComputeBwd),
				num("%.3fs", r.CommExposed), num("%.3fs", r.IterationTime))
		}
	}
	return tab, nil
}

// Figure7 reproduces the cross-framework throughput comparison on 8 GPUs
// with OOM marks: DP, DeepSpeed, Megatron (transformers), the Alpa-like
// searcher and TAPAS across every model-size scaling point.
func Figure7(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 7: throughput across frameworks on 8 GPUs (TFLOPS/GPU, × = OOM)"},
		Columns: []Column{{"model", -16}, {"DP", 10}, {"DeepSpeed", 10}, {"Megatron", 10}, {"Alpa", 10}, {"TAPAS", 10}}}
	sweep := sizeSweep
	if cfg.Quick {
		sweep = map[string][]string{
			"ResNet":     {"resnet-228M", "resnet-843M"},
			"T5":         {"t5-100M", "t5-770M"},
			"GShard-MoE": {"moe-380M", "moe-1.3B"},
		}
	}
	cl := cluster.V100x8()
	for _, fam := range families {
		for _, name := range sweep[fam] {
			gg, err := groupedModel(name)
			if err != nil {
				return tab, err
			}
			cells := []Cell{text(name)}
			for _, plan := range []string{"dp", "deepspeed", "megatron"} {
				if plan == "megatron" && fam != "T5" {
					cells = append(cells, text("-"))
					continue
				}
				_, s, err := planBy(plan, gg, cl)
				if err != nil {
					return tab, err
				}
				cells = append(cells, throughputCell(s, cl))
			}
			as, astats, err := alpaSearch(ctx, gg, cl, cfg)
			if err != nil {
				return tab, err
			}
			cells = append(cells, budgetCut(throughputCell(as, cl), astats))
			ts, _, _, err := tapasSearch(ctx, gg, cl, cfg)
			if err != nil {
				return tab, err
			}
			tab.add(fam, append(cells, throughputCell(ts, cl))...)
		}
	}
	return tab, nil
}

// weakScaledGraph builds the Figure-8 models with the batch scaled
// linearly with the GPU count, keeping the per-GPU workload constant.
func weakScaledGraph(family string, gpus int) (*ir.GNGraph, error) {
	switch family {
	case "ResNet":
		mc := models.ResNetSized("843M")
		mc.Batch = int64(8 * gpus)
		return ir.Group(models.ResNet(mc))
	case "T5":
		mc := models.T5Sized("770M")
		mc.Batch = int64(2 * gpus)
		return ir.Group(models.T5(mc))
	case "GShard-MoE":
		mc := models.MoESized("1.3B")
		mc.Batch = int64(2 * gpus)
		return ir.Group(models.MoE(mc))
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", family)
	}
}

// Figure8 reproduces weak scaling from 1 to 32 GPUs: TensorFlow-style
// data parallelism against TAPAS with exhaustive search (ES, under a time
// budget like the paper's 120-minute cap) and TAPAS with subgraph pruning
// (GP).
func Figure8(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 8: weak scaling (iteration time, × = OOM)"},
		Columns: []Column{{"family", -12}, {"GPUs", 6}, {"DP", 10}, {"TAPAS-ES", 10}, {"TAPAS-GP", 10}}}
	gpuSweep := []int{1, 4, 8, 16, 24, 32}
	esBudget := 30 * time.Second
	if cfg.Quick {
		gpuSweep = []int{1, 8, 16}
		esBudget = 2 * time.Second
	}
	for _, fam := range families {
		for _, gpus := range gpuSweep {
			gg, err := weakScaledGraph(fam, gpus)
			if err != nil {
				return tab, err
			}
			cl := cluster.V100GPUs(gpus)
			model := cost.Default(cl)

			dp, err := baselines.DataParallel(gg, gpus, model)
			if err != nil {
				return tab, err
			}

			esOpt := strategy.DefaultEnumOptions(gpus)
			esOpt.MaxCandidates = 1 << 15
			esOpt.TimeBudget = esBudget
			esOpt.Workers = cfg.Workers
			es, _, err := strategy.SearchExhaustive(ctx, gg, model, esOpt, cl.MemoryPerGP)
			esCell := text("budget")
			if err == nil {
				esCell = iterCell(es, cl)
			}
			esCell.Timing = true // its budget cut depends on the wall clock

			gp, _, _, err := tapasSearch(ctx, gg, cl, cfg)
			if err != nil {
				return tab, err
			}
			tab.add("", text(fam), count(gpus), iterCell(dp, cl), esCell, iterCell(gp, cl))
		}
	}
	return tab, nil
}

// Figure9 visualizes the discovered sharding strategies of a transformer
// layer the way the paper draws them: per-projection markers for
// column-wise parallel (C), row-wise parallel (R), replicated (*) and
// batch-split (B) weights.
func Figure9(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{
		Heading: []string{
			"Figure 9: visualization of sharding strategies (one transformer layer)",
			"markers: C = column-split, R = row-split, * = replicate, B = batch-split(DP)"},
		Columns: []Column{{"plan", -14}, {"Q", 3}, {"K", 3}, {"V", 3}, {"Out", 4}, {"|", 1}, {"Up", 3}, {"Down", 5}, {"", 0}}}
	gg, err := groupedModel("t5-100M")
	if err != nil {
		return tab, err
	}
	cl := cluster.V100x8()

	marks := map[string]string{"column-parallel": "C", "column-gather": "C", "row-parallel": "R", "data-parallel": "B"}

	// render adds one row marking each role of one layer by the pattern
	// of the role's first node in GraphNode.ID order.
	render := func(name string, s *strategy.Strategy, layer, note string) {
		cells := map[baselines.Role]string{}
		for _, gn := range s.Graph.Nodes {
			if gn.Layer != layer {
				continue
			}
			r := baselines.Classify(gn)
			if _, ok := cells[r]; !ok {
				cells[r] = marks[s.Assign[gn.ID].Name]
				if cells[r] == "" {
					cells[r] = "*" // replicated
				}
			}
		}
		qkv := text(cells[baselines.RoleQKV])
		tab.add("", text(name), qkv, qkv, qkv, text(cells[baselines.RoleAttnOut]), text("|"),
			text(cells[baselines.RoleFFNUp]), text(cells[baselines.RoleFFNDown]), text(note))
	}

	for _, plan := range []string{"dp", "mha-only", "ffn-only", "megatron"} {
		label, s, err := planBy(plan, gg, cl)
		if err != nil {
			return tab, err
		}
		render(label, s, "enc.0", "")
	}
	ts, _, _, err := tapasSearch(ctx, gg, cl, cfg)
	if err != nil {
		return tab, err
	}
	render("TAPAS(small)", ts, "enc.0", "")

	// On the largest T5, replicated-weight plans exceed device memory and
	// TAPAS is forced into the tensor-sharded regime — the discovered
	// plans of the paper's Figure 9.
	if !cfg.Quick {
		big, err := groupedModel("t5-1.4B")
		if err != nil {
			return tab, err
		}
		tb, _, _, err := tapasSearch(ctx, big, cl, cfg)
		if err != nil {
			return tab, err
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
		render("TAPAS(1.4B)", tb, layer, "  (sharded layer "+layer+" of the mixed plan)")
	}
	return tab, nil
}
