package baselines

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// FlexFlowOptions bound the MCMC search.
type FlexFlowOptions struct {
	// Budget is the number of MCMC proposals (B in Table 1); zero picks
	// 40·V like FlexFlow's default trial multiplier.
	Budget int
	// Temperature scales the Metropolis acceptance of cost increases.
	Temperature float64
	// Seed makes the chain deterministic.
	Seed int64
}

// DefaultFlexFlowOptions returns the evaluation knobs.
func DefaultFlexFlowOptions() FlexFlowOptions {
	return FlexFlowOptions{Temperature: 0.05, Seed: 1}
}

// FlexFlowStats reports the chain's behaviour.
type FlexFlowStats struct {
	Proposals int
	Accepted  int
	Elapsed   time.Duration
	Canceled  bool // the chain was cut short by context cancellation
}

// FlexFlowSearch emulates FlexFlow's Markov-Chain Monte-Carlo strategy
// search: starting from pure data parallelism, it proposes random
// single-node pattern changes and accepts them with Metropolis odds on the
// cost-model score, evaluating every proposal by a full O(V+E) validation
// — the O(BV+BE) behaviour of Table 1. Cancelling ctx ends the chain
// early with stats.Canceled set and returns the best plan found so far
// (callers that must abort outright, like the Engine, discard it and
// report the context error instead).
func FlexFlowSearch(ctx context.Context, g *ir.GNGraph, w int, model *cost.Model, opt FlexFlowOptions) (*strategy.Strategy, *FlexFlowStats, error) {
	start := time.Now()
	stats := &FlexFlowStats{}
	rng := rand.New(rand.NewSource(opt.Seed))
	nodes := g.TopoOrder()
	if opt.Budget <= 0 {
		opt.Budget = 40 * len(nodes)
	}
	if opt.Temperature <= 0 {
		opt.Temperature = 0.05
	}

	// Start from the DP plan (FlexFlow's default initialization).
	cur, err := DataParallel(g, w, model)
	if err != nil {
		return nil, stats, err
	}
	curAssign := slices.Clone(cur.Assign)
	curCost := cur.Cost.Total()
	bestAssign := slices.Clone(curAssign)
	bestCost := curCost

	menus := make([][]*ir.Pattern, len(nodes))
	for i, gn := range nodes {
		menus[i] = ir.PatternsFor(gn, w)
	}

	score := func(assign []*ir.Pattern) (float64, bool) {
		events, err := strategy.Validate(g, assign, w, true)
		if err != nil {
			return 0, false
		}
		return model.StrategyCost(assign, events).Total(), true
	}

	for it := 0; it < opt.Budget; it++ {
		if it&0xff == 0 && ctx.Err() != nil {
			stats.Canceled = true
			break // return the best accepted plan so far
		}
		stats.Proposals++
		i := rng.Intn(len(nodes))
		menu := menus[i]
		if len(menu) < 2 {
			continue
		}
		prop := menu[rng.Intn(len(menu))]
		gn := nodes[i]
		old := curAssign[gn.ID]
		if prop == old {
			continue
		}
		curAssign[gn.ID] = prop
		c, valid := score(curAssign)
		accept := false
		if valid {
			if c <= curCost {
				accept = true
			} else {
				rel := (c - curCost) / curCost
				accept = rng.Float64() < math.Exp(-rel/opt.Temperature)
			}
		}
		if accept {
			stats.Accepted++
			curCost = c
			if c < bestCost {
				bestCost = c
				bestAssign = slices.Clone(curAssign)
			}
		} else {
			curAssign[gn.ID] = old
		}
	}

	s, err := strategy.New(g, bestAssign, w, true, model)
	if err != nil {
		return nil, stats, err
	}
	stats.Elapsed = time.Since(start)
	return s, stats, nil
}
