package baselines

import (
	"context"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/sim"
	"tapas/internal/strategy"
)

func TestExpertPlansOnEveryArchitecture(t *testing.T) {
	// The expert planners must degrade gracefully on architectures they
	// were not written for: Megatron on a CNN falls back to propagation,
	// GShard on a dense transformer finds no experts — all still valid.
	m := cost.Default(cluster.V100x8())
	for _, arch := range []string{"unet-small", "twotower-small", "vit-base", "bert-base"} {
		g := grouped(t, arch)
		for _, pl := range []struct {
			name string
			run  func() (*strategy.Strategy, error)
		}{
			{"megatron", func() (*strategy.Strategy, error) { return Megatron(g, 8, m) }},
			{"gshard", func() (*strategy.Strategy, error) { return GShardExpert(g, 8, m) }},
			{"ffn-only", func() (*strategy.Strategy, error) { return FFNOnly(g, 8, m) }},
			{"deepspeed", func() (*strategy.Strategy, error) { return DeepSpeed(g, 8, m) }},
		} {
			s, err := pl.run()
			if err != nil {
				t.Errorf("%s on %s: %v", pl.name, arch, err)
				continue
			}
			if _, err := strategy.Validate(g, s.Assign, 8, true); err != nil {
				t.Errorf("%s on %s: invalid plan: %v", pl.name, arch, err)
			}
		}
	}
}

func TestBaselinePlansSimulate(t *testing.T) {
	cl := cluster.V100x8()
	m := cost.Default(cl)
	cfg := sim.DefaultConfig(cl)
	g := grouped(t, "bert-large")
	for _, pl := range []func() (*strategy.Strategy, error){
		func() (*strategy.Strategy, error) { return DataParallel(g, 8, m) },
		func() (*strategy.Strategy, error) { return Megatron(g, 8, m) },
		func() (*strategy.Strategy, error) { return FFNOnly(g, 8, m) },
	} {
		s, err := pl()
		if err != nil {
			t.Fatal(err)
		}
		r := sim.Run(s, cfg)
		if r.IterationTime <= 0 {
			t.Errorf("degenerate report %+v", r)
		}
	}
}

func TestMegatronOnViTShardsAttention(t *testing.T) {
	// ViT uses the same transformer blocks, so Megatron's rules apply.
	g := grouped(t, "vit-base")
	s, err := Megatron(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	qkvCol := 0
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		if Classify(gn) == RoleQKV && p.Name == "column-parallel" {
			qkvCol++
		}
	}
	if qkvCol == 0 {
		t.Error("ViT Megatron should column-split QKV projections")
	}
}

func TestFlexFlowBudgetDefaults(t *testing.T) {
	g := grouped(t, "resnet-26M")
	m := cost.Default(cluster.V100x8())
	opt := DefaultFlexFlowOptions() // Budget 0 → 40·V
	_, stats, err := FlexFlowSearch(context.Background(), g, 8, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Proposals != 40*len(g.Nodes) {
		t.Errorf("default budget = %d proposals, want %d", stats.Proposals, 40*len(g.Nodes))
	}
}

func TestAlpaTimeBudgetReturnsBestSoFar(t *testing.T) {
	g := grouped(t, "t5-300M")
	m := cost.Default(cluster.V100x8())
	opt := DefaultAlpaOptions()
	opt.TimeBudget = 1 // effectively immediate timeout
	if _, stats, err := AlpaSearch(context.Background(), g, 8, m, opt); err == nil {
		// With an immediate timeout the DP table may still close via the
		// first segments; if it returns a plan, it must be valid.
		_ = stats
	} else if stats == nil || !stats.TimedOut {
		t.Errorf("expected timeout stats, got err=%v stats=%+v", err, stats)
	}
}
