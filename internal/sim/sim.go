// Package sim is the training-step simulator: the stand-in for the
// paper's 8–32 V100 testbed. Given a parallel strategy and a cluster, it
// estimates one training iteration with first-order GPU behaviour:
//
//   - per-operator compute time from a utilization curve that degrades for
//     small per-device workloads (the arithmetic-intensity effect that
//     makes over-sharded attention slow and lets the paper's FFN-only plan
//     beat fully-sharded Megatron);
//   - ring-collective communication on the topology's bottleneck link;
//   - gradient-communication overlap in the backward pass;
//   - per-device memory accounting (weights, gradients, Adam moments,
//     stored activations) with OOM detection — the "×" marks of Figures 7
//     and 8.
//
// The simulator is the ground truth the Table-2 cost-model ablation ranks
// against; the analytical cost model never reads simulator internals.
package sim

import (
	"fmt"
	"math"

	"tapas/internal/cluster"
	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/strategy"
)

// Config holds the hardware-behaviour knobs.
type Config struct {
	Cluster *cluster.Cluster
	// MaxUtilization is the sustained fraction of peak FLOPS reachable by
	// large dense kernels (≈0.55 for FP32 V100 GEMMs).
	MaxUtilization float64
	// HalfUtilFLOPs is the per-kernel FLOP count at which utilization
	// halves — the knee of the arithmetic-intensity curve.
	HalfUtilFLOPs float64
	// KernelOverhead is the fixed launch latency per operator.
	KernelOverhead float64
	// BackwardFactor scales forward compute to backward compute.
	BackwardFactor float64
	// BwdOverlap is the fraction of backward communication hidden behind
	// backward compute (gradient bucketing in DL frameworks).
	BwdOverlap float64
	// CollectiveEff scales each collective's effective bandwidth: the
	// reduction inside an all-reduce pipelines with its transmission,
	// while an all-to-all has nothing to overlap — the behaviour the cost
	// model's ε coefficients approximate from "offline profiling".
	CollectiveEff map[comm.Kind]float64
}

// DefaultConfig returns knobs calibrated to the paper's V100 testbed.
func DefaultConfig(c *cluster.Cluster) Config {
	return Config{
		Cluster:        c,
		MaxUtilization: 0.55,
		HalfUtilFLOPs:  2e9,
		KernelOverhead: 8e-6,
		BackwardFactor: 2.0,
		BwdOverlap:     0.85,
		CollectiveEff: map[comm.Kind]float64{
			comm.AllReduce:     1.00,
			comm.AllGather:     0.65,
			comm.ReduceScatter: 0.65,
			comm.AllToAll:      0.55,
			comm.Broadcast:     0.80,
		},
	}
}

// collectiveTime prices one event on the cluster, derated by the
// per-collective efficiency.
func (c Config) collectiveTime(e comm.Event) float64 {
	t := c.Cluster.CollectiveTime(e)
	if eff, ok := c.CollectiveEff[e.Kind]; ok && eff > 0 {
		t /= eff
	}
	return t
}

// Report is the outcome of simulating one training iteration.
type Report struct {
	IterationTime float64 // seconds per iteration
	ComputeFwd    float64
	ComputeBwd    float64
	CommFwd       float64 // forward collectives + resharding
	CommBwd       float64 // backward collectives before overlap
	CommExposed   float64 // communication on the critical path
	MemPerDev     int64
	OOM           bool
	// TFLOPSPerGPU is model FLOPs (fwd+bwd, no redundant work counted)
	// divided by iteration time and GPU count — the paper's throughput
	// metric.
	TFLOPSPerGPU float64
}

// String implements fmt.Stringer.
func (r Report) String() string {
	if r.OOM {
		return fmt.Sprintf("OOM (needs %.1f GiB/device)", float64(r.MemPerDev)/(1<<30))
	}
	return fmt.Sprintf("%.3fs/iter, %.2f TFLOPS/GPU (compute %.3f+%.3f, comm %.3f exposed)",
		r.IterationTime, r.TFLOPSPerGPU, r.ComputeFwd, r.ComputeBwd, r.CommExposed)
}

// kernelTime models one operator's execution: the utilization curve
// u(f) = MaxUtilization · f/(f + HalfUtilFLOPs) captures how small
// per-device kernels cannot saturate the GPU, plus a fixed launch
// overhead.
func (c Config) kernelTime(flops int64) float64 {
	if flops <= 0 {
		return c.KernelOverhead
	}
	f := float64(flops)
	util := c.MaxUtilization * f / (f + c.HalfUtilFLOPs)
	return f/(c.Cluster.PeakFLOPS*util) + c.KernelOverhead
}

// Run simulates one training iteration of the strategy.
func Run(s *strategy.Strategy, cfg Config) Report {
	var r Report
	var modelFwdFLOPs int64

	for _, gn := range s.Graph.TopoOrder() {
		p := s.Assign[gn.ID]
		gnFwd := gn.ForwardFLOPs()
		modelFwdFLOPs += gnFwd

		// Per-op compute: scale each member op's FLOPs by the pattern's
		// sharding factor, preserving per-kernel granularity so the
		// utilization curve sees realistic kernel sizes.
		factor := 1.0
		if gnFwd > 0 {
			factor = float64(p.FLOPsPerDev) / float64(gnFwd)
		}
		for _, op := range gn.Ops {
			f := int64(float64(op.ForwardFLOPs()) * factor)
			r.ComputeFwd += cfg.kernelTime(f)
			r.ComputeBwd += cfg.BackwardFactor * cfg.kernelTime(f)
		}

		for _, e := range p.FwdComm {
			r.CommFwd += cfg.collectiveTime(e)
		}
		for _, e := range p.BwdComm {
			r.CommBwd += cfg.collectiveTime(e)
		}
	}
	for _, e := range s.Reshard {
		r.CommFwd += cfg.collectiveTime(e)
	}

	// Backward communication overlaps with backward compute up to the
	// configured fraction, and never hides more than the compute that is
	// actually available.
	hidden := math.Min(cfg.BwdOverlap*r.CommBwd, 0.9*r.ComputeBwd)
	r.CommExposed = r.CommFwd + r.CommBwd - hidden
	r.IterationTime = r.ComputeFwd + r.ComputeBwd + r.CommExposed

	r.MemPerDev = s.MemPerDev
	r.OOM = s.MemPerDev > cfg.Cluster.MemoryPerGP
	if r.IterationTime > 0 {
		useful := float64(modelFwdFLOPs) * (1 + cfg.BackwardFactor)
		r.TFLOPSPerGPU = useful / r.IterationTime / float64(cfg.Cluster.TotalGPUs()) / 1e12
	}
	return r
}

// ProfileCollectives plays the role of the paper's offline profiling run:
// it measures (on the simulated testbed) every collective kind across a
// sweep of sizes and worker counts, producing the samples the cost model's
// Calibrate fits α and ε from.
func ProfileCollectives(cfg Config, sizes []int64, workerCounts []int) []cost.Sample {
	kinds := []comm.Kind{comm.AllReduce, comm.AllGather, comm.ReduceScatter, comm.AllToAll, comm.Broadcast}
	var out []cost.Sample
	for _, k := range kinds {
		for _, n := range sizes {
			for _, w := range workerCounts {
				if w < 2 {
					continue
				}
				e := comm.Event{Kind: k, Bytes: n, W: w}
				out = append(out, cost.Sample{
					Kind:    k,
					Bytes:   n,
					Workers: w,
					Seconds: cfg.collectiveTime(e),
				})
			}
		}
	}
	return out
}
