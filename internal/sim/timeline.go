package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"tapas/internal/strategy"
)

// Span is one scheduled interval of a simulated training iteration.
type Span struct {
	Name  string
	Lane  string // "compute" or "comm"
	Start float64
	Dur   float64
}

// Timeline is the per-operator schedule of one iteration on one device.
type Timeline struct {
	Spans []Span
	// Makespan is the end of the last span — the timeline's iteration
	// time.
	Makespan float64
}

// BuildTimeline lays out one training iteration span by span: the forward
// pass runs compute and its collectives serially (tensor-parallel
// collectives sit on the critical path), then the backward pass interleaves
// compute with gradient collectives on a separate communication lane,
// overlapping them up to the configured fraction — a visual, per-operator
// refinement of the aggregate model in Run.
func BuildTimeline(s *strategy.Strategy, cfg Config) *Timeline {
	tl := &Timeline{}
	now := 0.0

	// Forward pass: compute and forward collectives in topological order.
	for _, gn := range s.Graph.TopoOrder() {
		p := s.Assign[gn.ID]
		factor := 1.0
		if f := gn.ForwardFLOPs(); f > 0 {
			factor = float64(p.FLOPsPerDev) / float64(f)
		}
		for _, op := range gn.Ops {
			d := cfg.kernelTime(int64(float64(op.ForwardFLOPs()) * factor))
			tl.Spans = append(tl.Spans, Span{Name: op.Name, Lane: "compute", Start: now, Dur: d})
			now += d
		}
		for _, e := range p.FwdComm {
			d := cfg.collectiveTime(e)
			tl.Spans = append(tl.Spans, Span{
				Name:  fmt.Sprintf("%s(%s)", e.Kind, gn.String()),
				Lane:  "comm",
				Start: now,
				Dur:   d,
			})
			now += d
		}
	}
	for i, e := range s.Reshard {
		d := cfg.collectiveTime(e)
		tl.Spans = append(tl.Spans, Span{Name: fmt.Sprintf("reshard_%d", i), Lane: "comm", Start: now, Dur: d})
		now += d
	}

	// Backward pass: reverse topological order; gradient collectives are
	// issued onto the comm lane as soon as their producer finishes and
	// drain concurrently with later compute.
	commFree := now
	order := s.Graph.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		gn := order[i]
		p := s.Assign[gn.ID]
		factor := 1.0
		if f := gn.ForwardFLOPs(); f > 0 {
			factor = float64(p.FLOPsPerDev) / float64(f)
		}
		for j := len(gn.Ops) - 1; j >= 0; j-- {
			op := gn.Ops[j]
			d := cfg.BackwardFactor * cfg.kernelTime(int64(float64(op.ForwardFLOPs())*factor))
			tl.Spans = append(tl.Spans, Span{Name: op.Name + "_grad", Lane: "compute", Start: now, Dur: d})
			now += d
		}
		for _, e := range p.BwdComm {
			d := cfg.collectiveTime(e)
			start := commFree
			if now > start {
				start = now // cannot begin before the grads exist
			}
			// Only the configured overlap fraction hides behind compute;
			// the exposed remainder pushes the critical path.
			tl.Spans = append(tl.Spans, Span{
				Name:  fmt.Sprintf("%s(%s)_grad", e.Kind, gn.String()),
				Lane:  "comm",
				Start: start,
				Dur:   d,
			})
			commFree = start + d
			exposed := (1 - cfg.BwdOverlap) * d
			now += exposed
		}
	}
	if commFree > now {
		now = commFree
	}
	tl.Makespan = now
	return tl
}

// chromeEvent is the Chrome tracing "complete event" record.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChromeTrace emits the timeline in the Chrome tracing JSON format
// (load via chrome://tracing or Perfetto).
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	lanes := map[string]int{"compute": 1, "comm": 2}
	events := make([]chromeEvent, 0, len(tl.Spans))
	for _, sp := range tl.Spans {
		events = append(events, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   sp.Start * 1e6,
			Dur:  sp.Dur * 1e6,
			Pid:  0,
			Tid:  lanes[sp.Lane],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": events})
}

// LaneBusy sums the busy time of one lane.
func (tl *Timeline) LaneBusy(lane string) float64 {
	var sum float64
	for _, sp := range tl.Spans {
		if sp.Lane == lane {
			sum += sp.Dur
		}
	}
	return sum
}
