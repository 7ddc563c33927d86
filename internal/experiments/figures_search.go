package experiments

import (
	"context"
	"fmt"

	"tapas/internal/cluster"
	"tapas/internal/mining"
)

// Figure1 reproduces the search-time-budget vs throughput scatter: for one
// representative size per family, TAPAS and the Alpa-like baseline each
// report their strategy-derivation time and the simulated training
// throughput of the plan they found.
func Figure1(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 1: search time vs training throughput (8 GPUs)"},
		Columns: []Column{{"model", -14}, {"system", -8}, {"search-time", 14}, {"TFLOPS/GPU", 14}}}
	modelsUnder := []string{"resnet-228M", "t5-300M", "moe-690M"}
	if cfg.Quick {
		modelsUnder = []string{"resnet-228M", "t5-100M", "moe-380M"}
	}
	cl := cluster.V100x8()
	for _, name := range modelsUnder {
		gg, err := groupedModel(name)
		if err != nil {
			return tab, err
		}
		ts, _, tdur, err := tapasSearch(ctx, gg, cl, cfg)
		if err != nil {
			return tab, err
		}
		tab.add("", text(name), text("TAPAS"), durationCell(tdur), throughputCell(ts, cl))

		as, astats, err := alpaSearch(ctx, gg, cl, cfg)
		if err != nil {
			return tab, err
		}
		tab.add("", text(name), text("Alpa"), durationCell(astats.Elapsed),
			budgetCut(throughputCell(as, cl), astats))
	}
	return tab, nil
}

// Table1 reproduces the complexity table: the analytic complexity classes
// of FlexFlow, Alpa and TAPAS, instantiated with the measured E, V, L and
// C of the evaluation models.
func Table1(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{
		Heading: []string{
			"Table 1: complexities of selected auto-parallel frameworks",
			"framework   search-space      search-algorithm            validation   overall",
			"FlexFlow    N(4E,4V)          O(B) MCMC                   O(V+E)       O(BV+BE)",
			"Alpa        N(kE,kV)          O(V²L) ⊗ O(E(V+E)) ILP      O(V+E)       O(V²L(V+E²))",
			"TAPAS       N(E/2CL,V/2CL)    O((E+V)/L) BFS              O(E/L)       O((E+V)/L)",
			"measured graph parameters (C = ops per GraphNode, L = layer repeat count):"},
		Columns: []Column{{"model", -16}, {"ops", 6}, {"V", 6}, {"E", 6}, {"L", 6}, {"C", 6}, {"classes", 8}}}
	names := []string{"t5-770M", "resnet-228M", "moe-1.3B"}
	if cfg.Quick {
		names = []string{"t5-100M", "resnet-26M", "moe-380M"}
	}
	for _, name := range names {
		gg, err := groupedModel(name)
		if err != nil {
			return tab, err
		}
		v, e := gg.Stats()
		ops := len(gg.Src.Nodes)
		sup := mining.AutoMinSupport(gg)
		classes := mining.Fold(gg, mining.Mine(ctx, gg, mining.DefaultOptions()))
		if err := ctx.Err(); err != nil {
			return tab, err // partial mining would misreport the class counts
		}
		c := 0
		if v > 0 {
			c = ops / v
		}
		tab.add("", text(name), count(ops), count(v), count(e), count(sup), count(c), count(len(classes)))
	}
	return tab, nil
}

// Figure6 reproduces the end-to-end search time sweep: TAPAS vs the
// Alpa-like baseline across the paper's model-size scaling points for
// ResNet (width), T5 (depth) and GShard-MoE (width+depth). Beside the
// wall-clock times it counts the complete assignments each search
// examined, the work the speedup comes from.
func Figure6(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 6: end-to-end search time under different frameworks (8 GPUs)"},
		Columns: []Column{{"model", -16}, {"Alpa", 14}, {"TAPAS", 14}, {"speedup", 10}, {"Alpa-examined", 14}, {"TAPAS-examined", 14}}}
	sweep := sizeSweep
	if cfg.Quick {
		sweep = map[string][]string{
			"ResNet":     {"resnet-26M", "resnet-228M"},
			"T5":         {"t5-100M", "t5-300M"},
			"GShard-MoE": {"moe-380M", "moe-690M"},
		}
	}
	cl := cluster.V100x8()
	for _, fam := range families {
		for _, name := range sweep[fam] {
			gg, err := groupedModel(name)
			if err != nil {
				return tab, err
			}
			_, tstats, tdur, err := tapasSearch(ctx, gg, cl, cfg)
			if err != nil {
				return tab, err
			}
			_, astats, err := alpaSearch(ctx, gg, cl, cfg)
			if err != nil {
				return tab, err
			}
			speedup := float64(astats.Elapsed) / float64(tdur)
			mark := ""
			if astats.TimedOut {
				mark = "+" // Alpa hit its budget: the true gap is larger
			}
			tab.add(fam, text(name), durationCell(astats.Elapsed), durationCell(tdur),
				Cell{Text: fmt.Sprintf("%.1fx%s", speedup, mark), V: speedup, Timing: true},
				budgetCut(count(astats.Examined), astats), count(tstats.Examined))
		}
	}
	return tab, nil
}

// Figure10 reproduces the subgraph-pruning micro-benchmark: the number of
// unique subgraphs (classes) and the mining time as minSize sweeps.
func Figure10(ctx context.Context, cfg Config) (*Table, error) {
	tab := &Table{Heading: []string{"Figure 10: subgraph pruning vs minimum subgraph size"},
		Columns: []Column{{"minSize", 8}, {"#subgraphs", 12}, {"mining-time", 14}}}
	names := []string{"t5-770M", "resnet152-100K", "moe-1.3B"}
	sizes := []int{1, 2, 4, 8, 16, 24, 32, 48, 64}
	if cfg.Quick {
		names = []string{"t5-200M", "resnet152-100K"}
		sizes = []int{1, 4, 16, 64}
	}
	for _, name := range names {
		gg, err := groupedModel(name)
		if err != nil {
			return tab, err
		}
		v, _ := gg.Stats()
		section := fmt.Sprintf("%s (unfolded: %d GraphNodes, %d ops)", name, v, len(gg.Src.Nodes))
		for _, ms := range sizes {
			opt := mining.DefaultOptions()
			opt.MinSize = ms
			res := mining.Mine(ctx, gg, opt)
			if err := ctx.Err(); err != nil {
				return tab, err // partial mining would misreport the sweep
			}
			classes := mining.Fold(gg, res)
			tab.add(section, count(ms), count(len(classes)), durationCell(res.Elapsed))
		}
	}
	return tab, nil
}
