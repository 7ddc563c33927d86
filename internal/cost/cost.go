// Package cost implements the paper's communication-based analytical cost
// model (§4.6). The vanilla α–β model is extended with:
//
//   - a latency term linear in the number of participating workers,
//     T_latency(p) = α′·W                              (Eq. 2)
//   - a transmission term with the backward-overlap discount γ and the
//     per-collective efficiency factor ε,
//     T_trans(p) = β·(N_fwd(p) + γ·N_bwd(p))·ε          (Eq. 3)
//   - the constant-tensor filter (CF in the Table-2 ablation): without
//     it, the naive model also prices tensors that never move (biases,
//     norm parameters, constants).
//
// The strategy cost is the sum over the sharding patterns along the
// computational graph's critical path (Eq. 4), plus a per-device compute
// term so candidates with different compute reductions remain comparable
// (the paper rejects fully-sharded plans because they pay more
// communication "with the same amount of compute reduction").
package cost

import (
	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/ir"
)

// Model evaluates candidate strategies. The ablation switches correspond
// to Table 2's rows: CF (constant filter), GO (gradient overlap) and EC
// (efficiency of collective communications).
type Model struct {
	Cluster *cluster.Cluster

	// ConstantFilter enables CF: skip non-moving tensors (constants and
	// rank-1 parameter vectors) when pricing a pattern.
	ConstantFilter bool
	// Gamma is the GO backward-overlap discount (0 < γ ≤ 1); 1 disables
	// the optimization.
	Gamma float64
	// Epsilon maps each collective to its EC efficiency factor
	// (0 < ε ≤ 1, collected "through offline profiling"); nil disables
	// the optimization (ε = 1 everywhere).
	Epsilon map[comm.Kind]float64
	// IncludeCompute adds the per-device compute time to the score.
	IncludeCompute bool
	// Utilization is the sustained fraction of peak FLOPS used for the
	// compute term.
	Utilization float64
}

// defaultEpsilon holds per-collective overlap efficiencies for the paper's
// testbed, standing in for the offline-profiled values: all-reduce
// pipelines its reduction with transmission well, all-to-all poorly.
func defaultEpsilon() map[comm.Kind]float64 {
	return map[comm.Kind]float64{
		comm.AllReduce:     0.60,
		comm.AllGather:     0.92,
		comm.ReduceScatter: 0.92,
		comm.AllToAll:      1.00,
		comm.Broadcast:     0.80,
	}
}

// Default returns the full TAPAS cost model (all optimizations on) for a
// cluster.
func Default(c *cluster.Cluster) *Model {
	return &Model{
		Cluster:        c,
		ConstantFilter: true,
		Gamma:          0.25,
		Epsilon:        defaultEpsilon(),
		IncludeCompute: true,
		Utilization:    0.45,
	}
}

// Baseline returns the vanilla α–β model of prior work: no constant
// filter, no gradient overlap, no collective-efficiency correction.
func Baseline(c *cluster.Cluster) *Model {
	return &Model{Cluster: c, Gamma: 1, IncludeCompute: true, Utilization: 0.45}
}

// WithCF returns Baseline + constant filter (Table 2 row 2).
func WithCF(c *cluster.Cluster) *Model {
	m := Baseline(c)
	m.ConstantFilter = true
	return m
}

// WithCFGO returns Baseline + CF + gradient overlap (Table 2 row 3).
func WithCFGO(c *cluster.Cluster) *Model {
	m := WithCF(c)
	m.Gamma = 0.25
	return m
}

// Breakdown decomposes a cost into the paper's terms.
type Breakdown struct {
	Latency float64 // Σ T_latency
	Trans   float64 // Σ T_trans
	Compute float64 // per-device compute time (fwd + bwd)
	Noise   float64 // non-moving tensors priced when CF is off
}

// Total returns the scalar score.
func (b Breakdown) Total() float64 { return b.Latency + b.Trans + b.Compute + b.Noise }

// epsilonFor returns the EC factor for a collective.
func (m *Model) epsilonFor(k comm.Kind) float64 {
	if m.Epsilon == nil {
		return 1
	}
	if e, ok := m.Epsilon[k]; ok && e > 0 {
		return e
	}
	return 1
}

// eventCost prices one collective event; backward events receive the γ
// discount.
func (m *Model) eventCost(e comm.Event, backward bool) (latency, trans float64) {
	if e.W <= 1 || e.Kind == comm.None || e.Bytes <= 0 {
		return 0, 0
	}
	link := m.Cluster.LinkFor(e.W)
	latency = link.Latency * float64(e.W) // Eq. 2: α′·W
	n := float64(e.WireBytes())
	if backward {
		n *= m.Gamma // Eq. 3: γ·N_bwd
	}
	trans = n / link.Bandwidth * m.epsilonFor(e.Kind)
	return latency, trans
}

// PatternCost prices one sharding pattern (Eqs. 1–3).
func (m *Model) PatternCost(p *ir.Pattern) Breakdown {
	var b Breakdown
	for _, e := range p.FwdComm {
		l, t := m.eventCost(e, false)
		b.Latency += l
		b.Trans += t
	}
	for _, e := range p.BwdComm {
		l, t := m.eventCost(e, true)
		b.Latency += l
		b.Trans += t
	}
	if m.IncludeCompute {
		// Backward ≈ 2× forward for dense nets.
		b.Compute = m.Cluster.ComputeTime(3*p.FLOPsPerDev, m.Utilization)
	}
	if !m.ConstantFilter {
		// The naive model also prices tensors that never move: constants
		// and rank-1 parameter vectors. With CF enabled these are
		// filtered out before costing.
		link := m.Cluster.LinkFor(p.W)
		b.Noise = float64(p.StillBytes*int64(p.W)) / link.Bandwidth
	}
	return b
}

// EventsCost prices standalone resharding collectives inserted between
// patterns (all treated as forward-pass traffic).
func (m *Model) EventsCost(events []comm.Event) Breakdown {
	var b Breakdown
	for _, e := range events {
		l, t := m.eventCost(e, false)
		b.Latency += l
		b.Trans += t
	}
	return b
}

// StrategyCost prices a complete strategy: the sum over all assigned
// patterns (the critical path of a sequential training step) plus any
// resharding events (Eq. 4).
func (m *Model) StrategyCost(patterns []*ir.Pattern, reshard []comm.Event) Breakdown {
	return m.SumCost(len(patterns), func(i int) Breakdown { return m.PatternCost(patterns[i]) }, reshard)
}

// SumCost is Eq. 4's summation, the one copy of it: the n pattern costs
// part(0), …, part(n-1) in that order, then the resharding events.
// StrategyCost computes each part on the spot; the enumeration reads them
// from a table of PatternCost values, and gets the same bits.
func (m *Model) SumCost(n int, part func(i int) Breakdown, reshard []comm.Event) Breakdown {
	var b Breakdown
	for i := 0; i < n; i++ {
		pb := part(i)
		b.Latency += pb.Latency
		b.Trans += pb.Trans
		b.Compute += pb.Compute
		b.Noise += pb.Noise
	}
	rb := m.EventsCost(reshard)
	b.Latency += rb.Latency
	b.Trans += rb.Trans
	return b
}
