package tapas

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestResultSummaryAndMarshalJSON(t *testing.T) {
	eng := NewEngine()
	res, err := eng.Search(context.Background(), "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if sum.Model != "t5-100M" || sum.GPUs != 8 {
		t.Errorf("identity fields: %q/%d", sum.Model, sum.GPUs)
	}
	if sum.PlanSummary != res.Strategy.Describe() {
		t.Errorf("plan summary %q != Describe %q", sum.PlanSummary, res.Strategy.Describe())
	}
	if sum.CostSeconds != res.Strategy.Cost.Total() || sum.MemBytesPerDevice != res.Strategy.MemPerDev {
		t.Error("cost/memory fields do not match the strategy")
	}
	if sum.Report.IterationSeconds != res.Report.IterationTime ||
		sum.Report.TFLOPSPerGPU != res.Report.TFLOPSPerGPU ||
		sum.Report.MemBytesPerDevice != res.Report.MemPerDev {
		t.Error("report fields do not match sim.Report")
	}
	if sum.Timing.TotalSeconds != res.TotalTime.Seconds() || sum.Timing.Examined != res.Examined {
		t.Error("timing fields do not match the result")
	}

	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, key := range []string{
		`"model":"t5-100M"`, `"gpus":8`, `"plan_summary"`, `"cost_seconds"`,
		`"mem_bytes_per_device"`, `"cache_hit":false`, `"report"`, `"timing"`,
		`"iteration_seconds"`, `"tflops_per_gpu"`, `"unique_graphs"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("marshaled Result missing %s:\n%s", key, s)
		}
	}
	// The raw internal pointers must never leak into the encoding.
	for _, leak := range []string{"Strategy", "Parallel", "Assign", "GroupTime"} {
		if strings.Contains(s, leak) {
			t.Errorf("marshaled Result leaks internal field %s:\n%s", leak, s)
		}
	}

	// The document round-trips into the summary struct.
	var back ResultSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != sum {
		t.Errorf("round trip changed the summary:\n%+v\n%+v", back, sum)
	}
}

func TestSummaryOfPartialResult(t *testing.T) {
	// A Result without a Strategy (as a failed or synthetic result may
	// be) must summarize without panicking.
	r := &Result{ModelName: "x", GPUs: 4}
	r.TotalTime = time.Second
	sum := r.Summary()
	if sum.PlanSummary != "" || sum.CostSeconds != 0 {
		t.Errorf("strategy-less summary invented plan data: %+v", sum)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSearchSpec(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()

	res, err := eng.SearchSpec(ctx, SearchSpec{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("first SearchSpec must be cold")
	}
	// Unlike the deprecated free functions, SearchSpec is cached: the
	// same spec hits, and so does a plain Search for the same key.
	res, err = eng.SearchSpec(ctx, SearchSpec{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("repeat SearchSpec must hit the cache")
	}
	res, err = eng.Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("Search after SearchSpec must share the cache entry")
	}

	// Per-spec options participate in the key exactly like engine
	// options: exhaustive misses, a worker override hits.
	res, err = eng.SearchSpec(ctx, SearchSpec{Model: "t5-100M", GPUs: 8, Options: &Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("worker count must not change the cache key")
	}
	res, err = eng.SearchSpec(ctx, SearchSpec{Model: "twotower-small", GPUs: 4, Options: &Options{Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("fresh exhaustive spec cannot hit")
	}

	// Graph-based specs search the given graph.
	g, err := BuildModel("twotower-small")
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.SearchSpec(ctx, SearchSpec{Graph: g, GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelName != "twotower-small" {
		t.Errorf("graph spec searched %q", res.ModelName)
	}
}

func TestEngineCacheStats(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	if s := eng.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 || s.Capacity != DefaultCacheSize {
		t.Fatalf("fresh engine stats: %+v", s)
	}
	if _, err := eng.Search(ctx, "twotower-small", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(ctx, "twotower-small", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(ctx, "twotower-small", 8); err != nil {
		t.Fatal(err)
	}
	s := eng.CacheStats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit", s)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}

	// A cache-disabled engine counts nothing.
	off := NewEngine(WithCache(0))
	if _, err := off.Search(ctx, "twotower-small", 4); err != nil {
		t.Fatal(err)
	}
	if s := off.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Capacity != 0 {
		t.Errorf("disabled-cache stats: %+v", s)
	}
}
