package tapas

import (
	"encoding/json"
	"errors"
	"sync"

	"tapas/internal/export"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
)

// ReportSummary is the wire form of a simulated training report: every
// field of sim.Report under an explicit, stable JSON name. Times are
// seconds, memory is bytes.
type ReportSummary struct {
	IterationSeconds   float64 `json:"iteration_seconds"`
	ComputeFwdSeconds  float64 `json:"compute_fwd_seconds"`
	ComputeBwdSeconds  float64 `json:"compute_bwd_seconds"`
	CommFwdSeconds     float64 `json:"comm_fwd_seconds"`
	CommBwdSeconds     float64 `json:"comm_bwd_seconds"`
	CommExposedSeconds float64 `json:"comm_exposed_seconds"`
	MemBytesPerDevice  int64   `json:"mem_bytes_per_device"`
	OOM                bool    `json:"oom"`
	TFLOPSPerGPU       float64 `json:"tflops_per_gpu"`
}

// reportSummary converts a sim.Report.
func reportSummary(r sim.Report) ReportSummary {
	return ReportSummary{
		IterationSeconds:   r.IterationTime,
		ComputeFwdSeconds:  r.ComputeFwd,
		ComputeBwdSeconds:  r.ComputeBwd,
		CommFwdSeconds:     r.CommFwd,
		CommBwdSeconds:     r.CommBwd,
		CommExposedSeconds: r.CommExposed,
		MemBytesPerDevice:  r.MemPerDev,
		OOM:                r.OOM,
		TFLOPSPerGPU:       r.TFLOPSPerGPU,
	}
}

// TimingSummary is the wire form of the search-time breakdown (the
// paper's headline metric). Times are seconds; on a cache hit they
// describe the original cold computation.
type TimingSummary struct {
	GroupSeconds  float64 `json:"group_seconds"`
	MineSeconds   float64 `json:"mine_seconds"`
	SearchSeconds float64 `json:"search_seconds"`
	TotalSeconds  float64 `json:"total_seconds"`
	Classes       int     `json:"classes"`
	Examined      int     `json:"examined"`
	Pruned        int     `json:"pruned"`
	UniqueGraphs  int     `json:"unique_graphs"`
}

// ResultSummary is the stable, wire-serializable form of a Result: plain
// values under explicit JSON names, no internal pointer types. It is
// what Result.MarshalJSON emits, and what crosses process boundaries —
// the service package's SearchResponse embeds it (adding the full
// per-node plan as a service.PlanJSON).
type ResultSummary struct {
	Model string `json:"model"`
	GPUs  int    `json:"gpus"`
	// PlanSummary is Strategy.Describe(): pattern-name counts, most
	// frequent first. The full per-node assignment is carried by
	// service.PlanJSON, not here.
	PlanSummary       string  `json:"plan_summary"`
	CostSeconds       float64 `json:"cost_seconds"`
	MemBytesPerDevice int64   `json:"mem_bytes_per_device"`
	CacheHit          bool    `json:"cache_hit"`
	// StoreHit marks a result restored from the persistent plan store
	// rather than computed; see Result.StoreHit.
	StoreHit bool          `json:"store_hit"`
	Report   ReportSummary `json:"report"`
	Timing   TimingSummary `json:"timing"`
}

// Summary renders the Result in its stable wire form. It never exposes
// the internal Strategy or per-device graph pointers, so the summary of
// a cached Result is safe to hand to any consumer.
func (r *Result) Summary() ResultSummary {
	s := ResultSummary{
		Model:    r.ModelName,
		GPUs:     r.GPUs,
		CacheHit: r.CacheHit,
		StoreHit: r.StoreHit,
		Report:   reportSummary(r.Report),
		Timing: TimingSummary{
			GroupSeconds:  r.GroupTime.Seconds(),
			MineSeconds:   r.MineTime.Seconds(),
			SearchSeconds: r.SearchTime.Seconds(),
			TotalSeconds:  r.TotalTime.Seconds(),
			Classes:       r.Classes,
			Examined:      r.Examined,
			Pruned:        r.Pruned,
			UniqueGraphs:  r.UniqueGraphs,
		},
	}
	if r.Strategy != nil {
		s.PlanSummary = r.Strategy.Describe()
		s.CostSeconds = r.Strategy.Cost.Total()
		s.MemBytesPerDevice = r.Strategy.MemPerDev
	}
	return s
}

// MarshalJSON encodes the Result as its Summary — the stable wire schema
// — instead of the raw struct, whose Strategy field is an internal
// pointer graph that cannot cross a process boundary.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Summary())
}

// entryMemo holds what a Result builds at most once — its plan document
// and its per-device graph — shared by every shallow copy of the Result
// that carries the same memo.
type entryMemo struct {
	plan   sync.Once
	doc    []byte
	docErr error

	parallel sync.Once
	graph    *reconstruct.ParallelGraph
	graphErr error
}

// PlanDocument renders the Result's plan as the versioned plan document
// (the service package's PlanJSON): two-space-indented JSON, without a
// trailing newline — the byte form of the service package's golden plan
// fixtures. A Result served from the Engine's cache renders it once per
// cache entry, and every hit returns the same bytes, which callers must
// not modify; a store hit returns the bytes the store holds, when they
// are provably what rendering would give (see WithStore); an uncached
// Result (WithCache(0), no store) renders on every call.
//
// The plan describes the graph that was searched first for a cache key:
// its model name and node names come from that graph, even when a hit is
// served for a structurally identical graph under another name.
func (r *Result) PlanDocument() ([]byte, error) {
	if r.memo == nil {
		return renderPlan(r)
	}
	r.memo.plan.Do(func() { r.memo.doc, r.memo.docErr = renderPlan(r) })
	return r.memo.doc, r.memo.docErr
}

// Parallel materializes the Result's plan as the per-device graph a
// training backend would execute: sharded operators with the inserted
// collectives (the paper's Graph Reconstructor). Searches and store hits
// do not build it; the first call does. A Result served from the
// Engine's cache builds it once per cache entry, and every hit returns
// the same graph, which callers must not modify; an uncached Result
// (WithCache(0)) builds it on every call. Its sizes are DeviceNodes and
// DeviceCollectives.
func (r *Result) Parallel() (*reconstruct.ParallelGraph, error) {
	if r.Strategy == nil {
		return nil, errNoStrategy
	}
	if r.memo == nil {
		return reconstruct.Reconstruct(r.Strategy)
	}
	r.memo.parallel.Do(func() { r.memo.graph, r.memo.graphErr = reconstruct.Reconstruct(r.Strategy) })
	return r.memo.graph, r.memo.graphErr
}

// renderedMemo returns a memo whose plan document is doc, rendered
// before: a store hit's stored bytes.
func renderedMemo(doc []byte) *entryMemo {
	m := new(entryMemo)
	m.plan.Do(func() { m.doc = doc })
	return m
}

// errNoStrategy is what a Result without a plan renders.
var errNoStrategy = errors.New("tapas: result has no strategy")

// renderPlan encodes r's strategy as a plan document.
func renderPlan(r *Result) ([]byte, error) {
	if r.Strategy == nil {
		return nil, errNoStrategy
	}
	p, err := export.FromStrategy(r.Strategy)
	if err != nil {
		return nil, err
	}
	return p.Document()
}
