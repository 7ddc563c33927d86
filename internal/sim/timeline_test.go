package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tapas/internal/baselines"
	"tapas/internal/cluster"
)

func TestBuildTimelineBasics(t *testing.T) {
	s := plan(t, "t5-100M", 8, baselines.Megatron)
	cfg := DefaultConfig(cluster.V100x8())
	tl := BuildTimeline(s, cfg)

	if len(tl.Spans) == 0 || tl.Makespan <= 0 {
		t.Fatalf("degenerate timeline: %d spans, makespan %v", len(tl.Spans), tl.Makespan)
	}
	// Spans never start before zero and never end after the makespan.
	for _, sp := range tl.Spans {
		if sp.Start < 0 || sp.Dur < 0 {
			t.Fatalf("negative span %+v", sp)
		}
		if sp.Start+sp.Dur > tl.Makespan+1e-9 {
			t.Fatalf("span %q ends after makespan", sp.Name)
		}
	}
	// Compute spans are serial: no two compute spans overlap.
	var computeEnd float64
	for _, sp := range tl.Spans {
		if sp.Lane != "compute" {
			continue
		}
		if sp.Start+1e-12 < computeEnd {
			t.Fatalf("compute spans overlap at %q", sp.Name)
		}
		computeEnd = sp.Start + sp.Dur
	}
}

func TestTimelineConsistentWithRun(t *testing.T) {
	s := plan(t, "t5-770M", 8, baselines.DataParallel)
	cfg := DefaultConfig(cluster.V100x8())
	tl := BuildTimeline(s, cfg)
	r := Run(s, cfg)

	// The two models make different overlap approximations but must agree
	// to first order.
	lo, hi := r.IterationTime*0.7, r.IterationTime*1.3
	if tl.Makespan < lo || tl.Makespan > hi {
		t.Errorf("timeline makespan %.3f far from aggregate model %.3f", tl.Makespan, r.IterationTime)
	}
	// Lane totals match the aggregate's compute and raw comm.
	compute := laneBusy(tl, "compute")
	if got, want := compute, r.ComputeFwd+r.ComputeBwd; got < want*0.95 || got > want*1.05 {
		t.Errorf("compute lane %.3f vs aggregate %.3f", got, want)
	}
}

func TestTimelineMegatronHasCommLane(t *testing.T) {
	s := plan(t, "t5-100M", 8, baselines.Megatron)
	cfg := DefaultConfig(cluster.V100x8())
	tl := BuildTimeline(s, cfg)
	if laneBusy(tl, "comm") <= 0 {
		t.Error("Megatron timeline should contain collectives")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	s := plan(t, "t5-100M", 8, baselines.Megatron)
	tl := BuildTimeline(s, DefaultConfig(cluster.V100x8()))
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	events := doc["traceEvents"]
	if len(events) != len(tl.Spans) {
		t.Errorf("trace has %d events for %d spans", len(events), len(tl.Spans))
	}
	if !strings.Contains(buf.String(), "AllReduce") {
		t.Error("trace should name collectives")
	}
}

// laneBusy sums the busy time of one lane.
func laneBusy(tl *Timeline, lane string) float64 {
	var sum float64
	for _, sp := range tl.Spans {
		if sp.Lane == lane {
			sum += sp.Dur
		}
	}
	return sum
}
