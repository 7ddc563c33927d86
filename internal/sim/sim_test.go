package sim

import (
	"testing"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/models"
	"tapas/internal/strategy"
)

func plan(t testing.TB, model string, w int, build func(*ir.GNGraph, int, *cost.Model) (*strategy.Strategy, error)) *strategy.Strategy {
	t.Helper()
	src, err := models.Build(model)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.V100GPUs(w)
	s, err := build(g, w, cost.Default(cl))
	if err != nil {
		t.Fatalf("%s plan: %v", model, err)
	}
	return s
}

func TestRunDataParallelBasics(t *testing.T) {
	s := plan(t, "t5-100M", 8, baselines.DataParallel)
	r := Run(s, DefaultConfig(cluster.V100x8()))
	if r.IterationTime <= 0 {
		t.Fatalf("iteration time must be positive: %+v", r)
	}
	if r.TFLOPSPerGPU <= 0 || r.TFLOPSPerGPU > 15.7 {
		t.Errorf("TFLOPS/GPU %v outside (0, peak]", r.TFLOPSPerGPU)
	}
	if r.OOM {
		t.Error("T5-100M DP should fit in 32 GiB")
	}
	if r.CommBwd <= 0 {
		t.Error("DP must pay gradient synchronization")
	}
}

func TestRunDetectsOOM(t *testing.T) {
	// 1.4B params × 4 B × 4 (weights+grads+Adam) ≈ 22 GB replicated, plus
	// activations — DP on a 16 GB device must OOM.
	s := plan(t, "t5-1.4B", 8, baselines.DataParallel)
	small := cluster.V100x8()
	small.MemoryPerGP = 16 << 30
	r := Run(s, DefaultConfig(small))
	if !r.OOM {
		t.Errorf("expected OOM at 16 GiB, mem=%d GiB", r.MemPerDev>>30)
	}
}

func TestMegatronUsesLessMemoryThanDP(t *testing.T) {
	dp := plan(t, "t5-770M", 8, baselines.DataParallel)
	mg := plan(t, "t5-770M", 8, baselines.Megatron)
	if mg.MemPerDev >= dp.MemPerDev {
		t.Errorf("Megatron (%d MiB) should use less memory than DP (%d MiB)",
			mg.MemPerDev>>20, dp.MemPerDev>>20)
	}
}

func TestWeakScalingDPSlowsAcrossNodes(t *testing.T) {
	// Crossing the node boundary (8 → 16 GPUs over Ethernet) must cost DP
	// gradient sync dearly — the paper's core observation. Weak scaling:
	// the batch grows with the GPU count, as in Figure 8.
	dpAt := func(w int) Report {
		cfg := models.T5Sized("770M")
		cfg.Batch = int64(2 * w)
		src := models.T5(cfg)
		g, err := ir.Group(src)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.V100GPUs(w)
		s, err := baselines.DataParallel(g, w, cost.Default(cl))
		if err != nil {
			t.Fatal(err)
		}
		return Run(s, DefaultConfig(cl))
	}
	r8, r16 := dpAt(8), dpAt(16)
	if r16.CommBwd <= r8.CommBwd {
		t.Errorf("16-GPU DP comm (%v) should exceed 8-GPU (%v)", r16.CommBwd, r8.CommBwd)
	}
	// The jump must be large: gradients now cross 100 Gbps Ethernet.
	if r16.CommBwd < 3*r8.CommBwd {
		t.Errorf("inter-node gradient sync should dominate: %v vs %v", r16.CommBwd, r8.CommBwd)
	}
}

func TestKernelTimeMonotone(t *testing.T) {
	cfg := DefaultConfig(cluster.V100x8())
	prev := 0.0
	for _, f := range []int64{0, 1e6, 1e8, 1e10, 1e12} {
		cur := cfg.kernelTime(f)
		if cur < prev {
			t.Errorf("kernelTime not monotone at %d flops", f)
		}
		prev = cur
	}
}

func TestSmallKernelsUnderutilize(t *testing.T) {
	cfg := DefaultConfig(cluster.V100x8())
	// Effective throughput (flops/time) should grow with kernel size.
	small := float64(1e7) / cfg.kernelTime(1e7)
	large := float64(1e11) / cfg.kernelTime(1e11)
	if small >= large {
		t.Errorf("small kernels should be less efficient: %.3g vs %.3g flops/s", small, large)
	}
}

func TestFFNOnlyVsMegatronCommunication(t *testing.T) {
	// FFN-only shards half as many layers, so its per-iteration collective
	// volume must be lower than full Megatron's — the reason the paper's
	// discovered plan wins when memory permits.
	cfg := DefaultConfig(cluster.V100GPUs(16))
	mg := Run(plan(t, "t5-770M", 16, baselines.Megatron), cfg)
	ffn := Run(plan(t, "t5-770M", 16, baselines.FFNOnly), cfg)
	if ffn.CommFwd+ffn.CommBwd >= mg.CommFwd+mg.CommBwd {
		t.Errorf("FFN-only comm (%v) should be below Megatron (%v)",
			ffn.CommFwd+ffn.CommBwd, mg.CommFwd+mg.CommBwd)
	}
}

func TestProfileThenCalibrateRecoversOrdering(t *testing.T) {
	// The offline-profiling loop of the paper: measure collectives on the
	// testbed, fit ε, and recover that all-reduce is the most
	// overlap-friendly primitive and all-to-all the least.
	cl := cluster.V100Nodes(2)
	cfg := DefaultConfig(cl)
	samples := ProfileCollectives(cfg,
		[]int64{1 << 20, 1 << 24, 1 << 26},
		[]int{4, 8, 16})
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	cal, err := cost.Calibrate(samples, cl)
	if err != nil {
		t.Fatal(err)
	}
	rank := cal.Ranking()
	if rank[0] != comm.AllReduce {
		t.Errorf("calibration should find AllReduce cheapest per byte, got %v", rank)
	}
	last := rank[len(rank)-1]
	if last != comm.AllToAll {
		t.Errorf("calibration should find AllToAll most expensive, got %v", rank)
	}
}

func TestReportString(t *testing.T) {
	if (Report{OOM: true, MemPerDev: 64 << 30}).String() == "" {
		t.Error("OOM string empty")
	}
	if (Report{IterationTime: 0.5, TFLOPSPerGPU: 5}).String() == "" {
		t.Error("report string empty")
	}
}
