package strategy

import (
	"context"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

// localRunner executes every batch via the Local fallback — the
// simplest conforming TaskRunner.
type localRunner struct {
	fanout int
}

func (r *localRunner) Fanout() int { return r.fanout }
func (r *localRunner) RunTasks(ctx context.Context, b TaskBatch) ([]TaskResult, error) {
	return b.Local(ctx, b.Tasks), nil
}

// roundTripRunner ships each batch through ExecuteTasks against a
// separate Group() of the same model — an in-process stand-in for a
// remote daemon rebuilding the enumeration context from the wire form.
type roundTripRunner struct {
	g     *ir.GNGraph
	model *cost.Model
}

func (r *roundTripRunner) Fanout() int { return 0 }
func (r *roundTripRunner) RunTasks(ctx context.Context, b TaskBatch) ([]TaskResult, error) {
	return ExecuteTasks(ctx, r.g, b.Instance, r.model, b.Opt, b.Tasks)
}

// corruptRunner misbehaves in both detectable ways — malformed
// candidates for the first half of the batch, missing results for the
// second — forcing the local recompute fallback for every task.
type corruptRunner struct{}

func (corruptRunner) Fanout() int { return 0 }
func (corruptRunner) RunTasks(ctx context.Context, b TaskBatch) ([]TaskResult, error) {
	out := make([]TaskResult, (len(b.Tasks)+1)/2)
	for i := range out {
		out[i] = TaskResult{Candidates: [][]int{{-1}}}
	}
	return out, nil
}

// TestRunnerEquivalence is the determinism contract of the task-shipping
// seam: a search whose enumeration fans out through a TaskRunner — even
// one round-tripping the wire encoding against a separately-built graph,
// even one returning garbage — selects exactly the serial strategy with
// exactly the serial effort counters.
func TestRunnerEquivalence(t *testing.T) {
	for _, name := range []string{"t5-100M", "moe-380M"} {
		g := groupModel(t, name)
		const w = 8
		cl := cluster.V100GPUs(w)
		model := cost.Default(cl)
		classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))

		serialOpt := DefaultEnumOptions(w)
		serialOpt.Workers = 1
		serial, sstats, err := SearchFolded(context.Background(), g, classes, model, serialOpt, cl.MemoryPerGP)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}

		remote := groupModel(t, name) // the executor's own copy of the graph
		runners := []struct {
			name string
			r    TaskRunner
		}{
			{"local", &localRunner{fanout: 13}},
			{"roundtrip", &roundTripRunner{g: remote, model: cost.Default(cluster.V100GPUs(w))}},
			{"corrupt", corruptRunner{}},
		}
		for _, rn := range runners {
			opt := DefaultEnumOptions(w)
			opt.Workers = 4
			opt.Runner = rn.r
			got, gstats, err := SearchFolded(context.Background(), g, classes, model, opt, cl.MemoryPerGP)
			if err != nil {
				t.Fatalf("%s via %s runner: %v", name, rn.name, err)
			}
			if got.Describe() != serial.Describe() {
				t.Errorf("%s via %s runner: plan diverged from serial", name, rn.name)
			}
			if got.Cost.Total() != serial.Cost.Total() {
				t.Errorf("%s via %s runner: cost %v != serial %v", name, rn.name, got.Cost.Total(), serial.Cost.Total())
			}
			if gstats.Examined != sstats.Examined || gstats.Pruned != sstats.Pruned {
				t.Errorf("%s via %s runner: effort (%d examined, %d pruned) != serial (%d, %d)",
					name, rn.name, gstats.Examined, gstats.Pruned, sstats.Examined, sstats.Pruned)
			}
		}
	}
}

// TestExecuteTasksRejectsGarbage: shipped batches referencing unknown
// nodes or inconsistent prefixes fail loudly instead of answering
// partial results.
func TestExecuteTasksRejectsGarbage(t *testing.T) {
	g := groupModel(t, "t5-100M")
	const w = 4
	model := cost.Default(cluster.V100GPUs(w))
	opt := DefaultEnumOptions(w)

	if _, err := ExecuteTasks(context.Background(), g, nil, model, opt, nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := ExecuteTasks(context.Background(), g, []int{1 << 30}, model, opt, []TaskSpec{{Budget: 1}}); err == nil {
		t.Error("unknown node id accepted")
	}
	if _, err := ExecuteTasks(context.Background(), g, []int{-1}, model, opt, []TaskSpec{{Budget: 1}}); err == nil {
		t.Error("negative node id accepted")
	}
	if _, err := ExecuteTasks(context.Background(), g, []int{len(g.Nodes)}, model, opt, []TaskSpec{{Budget: 1}}); err == nil {
		t.Error("node id one past the graph accepted")
	}
	ids := []int{g.Nodes[0].ID, g.Nodes[1].ID}
	if _, err := ExecuteTasks(context.Background(), g, ids, model, opt, []TaskSpec{{Prefix: []int{999}, Budget: 1}}); err == nil {
		t.Error("out-of-range prefix index accepted")
	}
	if _, err := ExecuteTasks(context.Background(), g, ids, model, opt, []TaskSpec{{Prefix: []int{0, 0, 0}, Budget: 1}}); err == nil {
		t.Error("over-long prefix accepted")
	}
	if _, err := ExecuteTasks(context.Background(), g, ids, model, opt, []TaskSpec{{Budget: -1}}); err == nil {
		t.Error("negative budget accepted")
	}
}
