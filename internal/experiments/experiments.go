// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated substrate. Each generator returns a
// Table with the same rows/series the paper reports; README.md's "What
// the figures reproduce" records each figure's claim, the test that
// asserts it, and the one figure that is not reproduced.
package experiments

import (
	"context"
	"fmt"
	"time"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/sim"
	"tapas/internal/strategy"
)

// Config controls experiment fidelity.
type Config struct {
	// Quick trims sweep sizes and search budgets so the whole suite runs
	// in tens of seconds (used by the benchmark harness); the full mode
	// reproduces the complete sweeps.
	Quick bool
	// Workers bounds the strategy-search worker pool (0 = GOMAXPROCS,
	// 1 = serial). Experiments produce identical numbers for every value
	// — only the wall clock changes — except where a time budget cuts a
	// search: the TAPAS-ES column of Figure 8, and the Alpa-like
	// baseline of Figures 1, 6 and 7 when it hits its budget. Those
	// cells are marked Timing.
	Workers int
}

// Generator is one experiment regenerator.
type Generator struct {
	ID    string // e.g. "fig6"
	Title string
	// Run regenerates the experiment. It always returns a Table:
	// cancelling ctx aborts the underlying searches, and Run returns
	// the rows finished so far with the context error.
	Run func(ctx context.Context, cfg Config) (*Table, error)
}

// All returns the generators in paper order.
func All() []Generator {
	return []Generator{
		{"fig1", "Figure 1: search-time budget vs training throughput", Figure1},
		{"tab1", "Table 1: complexities of auto-parallel frameworks", Table1},
		{"fig5", "Figure 5: time breakdown for TP plans of T5-large", Figure5},
		{"fig6", "Figure 6: end-to-end search time across model sizes", Figure6},
		{"fig7", "Figure 7: training throughput across frameworks (8 GPUs)", Figure7},
		{"fig8", "Figure 8: weak scaling 1–32 GPUs", Figure8},
		{"fig9", "Figure 9: visualization of discovered strategies", Figure9},
		{"fig10", "Figure 10: subgraph pruning micro-benchmark", Figure10},
		{"tab2", "Table 2: cost-model ablation (Acc@K, MRR)", Table2},
	}
}

// Find returns the generator with the given ID.
func Find(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// families are the model families of Figures 6–8, and sizeSweep the
// full model-size sweep of Figures 6 and 7.
var (
	families  = []string{"ResNet", "T5", "GShard-MoE"}
	sizeSweep = map[string][]string{
		"ResNet":     {"resnet-26M", "resnet-44M", "resnet-228M", "resnet-536M", "resnet-843M"},
		"T5":         {"t5-100M", "t5-200M", "t5-300M", "t5-770M", "t5-1.4B"},
		"GShard-MoE": {"moe-380M", "moe-690M", "moe-1.3B", "moe-2.4B"},
	}
)

// groupedModel builds and groups a registered model.
func groupedModel(name string) (*ir.GNGraph, error) {
	g, err := models.Build(name)
	if err != nil {
		return nil, err
	}
	return ir.Group(g)
}

// tapasSearch runs mining + folded search and reports elapsed search time
// (mining + enumeration + assembly, matching the paper's definition of
// search time).
func tapasSearch(ctx context.Context, gg *ir.GNGraph, cl *cluster.Cluster, cfg Config) (*strategy.Strategy, *strategy.SearchStats, time.Duration, error) {
	start := time.Now()
	classes := mining.Fold(gg, mining.Mine(ctx, gg, mining.DefaultOptions()))
	opt := strategy.DefaultEnumOptions(cl.TotalGPUs())
	opt.Workers = cfg.Workers
	s, stats, err := strategy.SearchFolded(ctx, gg, classes, cost.Default(cl), opt, cl.MemoryPerGP)
	return s, stats, time.Since(start), err
}

// alpaSearch runs the Alpa-like baseline with budgets scaled by fidelity.
func alpaSearch(ctx context.Context, gg *ir.GNGraph, cl *cluster.Cluster, cfg Config) (*strategy.Strategy, *baselines.AlpaStats, error) {
	opt := baselines.DefaultAlpaOptions()
	if cfg.Quick {
		opt.MaxSegment = 10
		opt.InnerBudget = 16
		opt.TimeBudget = 5 * time.Second
	}
	return baselines.AlpaSearch(ctx, gg, cl.TotalGPUs(), cost.Default(cl), opt)
}

// planBy derives the named expert plan (a baselines.Experts Name) on cl
// and returns it with the label the figures print.
func planBy(name string, gg *ir.GNGraph, cl *cluster.Cluster) (string, *strategy.Strategy, error) {
	x, ok := baselines.LookupExpert(name)
	if !ok {
		return "", nil, fmt.Errorf("experiments: unknown plan %q", name)
	}
	s, err := x.Plan(gg, cl.TotalGPUs(), cost.Default(cl))
	return x.Label, s, err
}

// durationCell prints a duration in the paper's "minutes" axis when
// large and sub-second precision when small.
func durationCell(d time.Duration) Cell {
	c := Cell{V: d.Seconds(), Timing: true}
	switch {
	case d >= time.Minute:
		c.Text = fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		c.Text = fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		c.Text = fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		c.Text = fmt.Sprintf("%dµs", d.Microseconds())
	}
	return c
}

// oomMark is the paper's "×" for a plan that exceeds device memory.
const oomMark = "×(OOM)"

// throughputCell prints the simulated TFLOPS/GPU of s on cl, or the OOM mark.
func throughputCell(s *strategy.Strategy, cl *cluster.Cluster) Cell {
	if r := sim.Run(s, sim.DefaultConfig(cl)); !r.OOM {
		return num("%.2f", r.TFLOPSPerGPU)
	}
	return text(oomMark)
}

// iterCell prints the simulated iteration time of s on cl, or the OOM mark.
func iterCell(s *strategy.Strategy, cl *cluster.Cluster) Cell {
	if r := sim.Run(s, sim.DefaultConfig(cl)); !r.OOM {
		return num("%.3fs", r.IterationTime)
	}
	return text(oomMark)
}

// budgetCut marks c as timing-dependent when the Alpa-like search that
// produced it hit its time budget.
func budgetCut(c Cell, st *baselines.AlpaStats) Cell {
	c.Timing = c.Timing || st.TimedOut
	return c
}

// rankOf returns the 1-based position of target, one of the keys, in a
// score-ascending ranking (lower score = better), ties broken by name.
func rankOf(scores map[string]float64, target string) int {
	rank := 1
	for k, v := range scores {
		if v < scores[target] || (v == scores[target] && k < target) {
			rank++
		}
	}
	return rank
}
