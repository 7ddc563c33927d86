package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the one table BENCHMARK.json, -list and the result line
// are all generated from, so the three cannot drift. `-manifest` prints
// the BENCHMARK.json this table describes; TestManifestMatchesFile pins
// the committed file to it.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// command is how the driver starts the benchmark from the repo root.
var command = []string{"bash", "bench/run.sh"}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// What op_ms, op_ms_tail and ops_per_s are on this workload, for
	// -list; README.md has the reasons.
	op, tail, rate string
	run            func(*bench) (*report, error)
}

type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloads = []workload{
	{Name: "cold-deep", run: runColdDeep,
		Why:  "cold searches of the two deepest graphs (t5-1.4B, t5-770M at 8 GPUs) on one core: subgraph mining is half or more of the time, so a mining gain must show here",
		op:   "one pass: the sum over the 2 keys of the key's fastest cold search",
		tail: "the slower key's fastest cold search",
		rate: "passes per second at op_ms"},
	{Name: "cold-wide", run: runColdWide,
		Why:  "cold searches of five shallow graphs with large per-class menus on one core: enumeration is about 70% of the time, mining under 25%; the bypass workload for cold-deep and vice versa",
		op:   "one pass: the sum over the 5 keys of the key's fastest cold search",
		tail: "the slowest key's fastest cold search",
		rate: "passes per second at op_ms"},
	{Name: "serve-mix", run: runServeMix,
		Why:  "gateway and two replicas on loopback, one closed-loop client replaying 600 Zipf-shared requests over 88 keys: cache and store hits only, so HTTP, JSON, the gateway hop and rehydration do the work",
		op:   "one request: the median over the schedule's 600 requests of the request's fastest replay",
		tail: "the 95th percentile over the same 600",
		rate: "requests per second at the mean of the same 600"},
	{Name: "store-restart", run: runStoreRestart,
		Why:  "reopen a populated plan store and answer all 88 keys from it, then copy the corpus through the write-behind queue, on one core: store reads beside writes, no mining or enumeration",
		op:   "one restart-to-warm: the fastest store.Open plus the sum over the 88 keys of the key's fastest answer",
		tail: "the slowest key's fastest answer",
		rate: "whole cycles per second: op_ms plus the fastest corpus copy (88 PutAsync, Flush, Close)"},
}

// serveTail is the percentile op_ms_tail reports on serve-mix: the
// highest one that keeps at least ten of the schedule's requests beyond
// it.
const serveTail = 95

var endToEndMetrics = []endToEnd{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

var perLayerMetrics = []perLayer{
	{"models.build_ms", "ms", "lower"},
	{"graph.fingerprint_ms", "ms", "lower"},
	{"graph.nodes", "count", "lower"},
	{"ir.group_ms", "ms", "lower"},
	{"ir.graphnodes", "count", "lower"},
	{"mining.mine_ms", "ms", "lower"},
	{"mining.fold_ms", "ms", "lower"},
	{"mining.levels", "count", "lower"},
	{"mining.classes", "count", "lower"},
	{"mining.fold_ratio", "ratio", "higher"},
	{"mining.allocs", "count", "lower"},
	{"strategy.enum_ms", "ms", "lower"},
	{"strategy.assemble_ms", "ms", "lower"},
	{"strategy.examined", "count", "lower"},
	{"strategy.pruned", "count", "higher"},
	{"strategy.ns_per_examined", "ns", "lower"},
	{"strategy.allocs", "count", "lower"},
	{"reconstruct.ms", "ms", "lower"},
	{"reconstruct.collectives", "count", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.plan_cost_geomean", "sim_s", "lower"},
	{"export.plan_encode_ms", "ms", "lower"},
	{"export.plan_bytes", "bytes", "lower"},
	{"export.rehydrate_ms", "ms", "lower"},
	{"engine.cold_ms", "ms", "lower"},
	{"engine.self_ms", "ms", "lower"},
	{"engine.warm_hit_us", "us", "lower"},
	{"engine.workers_speedup", "ratio", "higher"},
	{"engine.allocs_per_search", "count", "lower"},
	{"engine.alloc_mb_per_search", "MB", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_flush_ms", "ms", "lower"},
	{"store.records", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.dropped_writes", "count", "lower"},
	{"replicate.write_ms", "ms", "lower"},
	{"replicate.fanout_overhead", "ratio", "lower"},
	{"service.search_hit_ms", "ms", "lower"},
	{"service.response_bytes", "bytes", "lower"},
	{"service.cache_hit_share", "share", "higher"},
	{"service.store_hit_share", "share", "lower"},
	{"service.job_ms_p50", "ms", "lower"},
	{"service.job_drift", "ratio", "lower"},
	{"serve.direct_ms_p50", "ms", "lower"},
	{"serve.direct_ms_p99", "ms", "lower"},
	{"serve.start_ms", "ms", "lower"},
	{"serve.rss_mb", "MB", "lower"},
	{"gateway.hop_ms_p50", "ms", "lower"},
	{"gateway.replica_balance", "share", "lower"},
	{"gateway.rss_mb", "MB", "lower"},
	{"dispatch.scatter_cold_ms", "ms", "lower"},
	{"dispatch.local_cold_ms", "ms", "lower"},
	{"dispatch.tasks_scattered", "count", "higher"},
	{"trace.overhead_share", "share", "lower"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// writeManifest prints the BENCHMARK.json the table describes.
func writeManifest(w io.Writer) error {
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}{command, []string{"bench"}, runSeconds, workloads, endToEndMetrics, perLayerMetrics}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}

// writeList prints workloads and metrics for a reader.
func writeList(w io.Writer) {
	fmt.Fprintf(w, "workloads (measure for %d s each):\n", runSeconds)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s\n      %s\n      op_ms      = %s\n      op_ms_tail = %s\n      ops_per_s  = %s\n", wl.Name, wl.Why, wl.op, wl.tail, wl.rate)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; times are fastest repeats; bound = allowed worsening of the median over runs):")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "  %-28s %-6s %-6s bound %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; 0 where a workload does not reach the layer):")
	for _, m := range perLayerMetrics {
		fmt.Fprintf(w, "  %-28s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}
