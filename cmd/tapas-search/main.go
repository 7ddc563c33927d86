// Command tapas-search derives a tensor-parallel strategy for one of the
// registered models and reports the plan, its predicted cost and the
// simulated training performance. Ctrl-C cancels an in-flight search
// cleanly; -timeout bounds it; -progress streams live pipeline events to
// stderr.
//
// A search runs in-process, or on a tapas-serve daemon (or gateway) with
// -serve-addr; either way the result is printed from its v1 wire form
// (service.SearchResponse). -format picks the view of a single search:
// text (the default), json (the plan document, as the daemon embeds it
// in every response), dot (a Graphviz drawing of the annotated GraphNode
// graph) or trace (a Chrome tracing timeline of one simulated
// iteration). dot and trace need the in-process plan, so they refuse
// -serve-addr; a comma batch prints text only.
//
// Usage:
//
//	tapas-search -model t5-770M -gpus 8
//	tapas-search -model t5-770M,moe-1.3B,bert-large -gpus 8   # batch via SearchAll
//	tapas-search -model resnet-228M -gpus 16 -baseline megatron
//	tapas-search -model moe-380M -baseline gshard -v           # per-GraphNode patterns and SRC
//	tapas-search -model t5-770M -gpus 8 -format json > plan.json
//	tapas-search -model resnet-228M -format dot | dot -Tsvg > plan.svg
//	tapas-search -workers 4 -timeout 2m -progress -model t5-1.4B -gpus 32
//	tapas-search -serve-addr http://localhost:8080 -model t5-770M -gpus 8   # remote daemon
//	tapas-search -serve-addr http://localhost:8080 -model t5-770M,bert-large -gpus 8   # remote batch
//	tapas-search -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tapas"
	"tapas/internal/cli"
	"tapas/internal/export"
	"tapas/internal/graphio"
	"tapas/internal/sim"
	"tapas/service"
)

func main() {
	model := flag.String("model", "t5-770M", "model name (see -list); a comma-separated list runs a concurrent batch search")
	spec := flag.String("spec", "", "load a custom model from a graphio spec file instead of -model")
	gpus := flag.Int("gpus", 8, "total GPU count (V100 nodes of 8)")
	baseline := flag.String("baseline", "", "derive with a baseline planner instead of TAPAS (dp, deepspeed, megatron, ffn-only, mha-only, gshard, alpa, flexflow)")
	exhaustive := flag.Bool("es", false, "use exhaustive search (TAPAS-ES) instead of subgraph pruning")
	workers := flag.Int("workers", 0, "search worker goroutines (0 = GOMAXPROCS, 1 = serial; the plan is identical either way)")
	timeout := flag.Duration("timeout", 0, "abort the search after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "stream live search progress to stderr")
	serveAddr := flag.String("serve-addr", "", "post the search to a tapas-serve daemon at this base URL instead of searching in-process")
	list := flag.Bool("list", false, "list registered models and exit")
	verbose := flag.Bool("v", false, "print the per-GraphNode pattern assignment")
	format := flag.String("format", "text", "output of a single search: text, json (the plan document), dot (Graphviz drawing of the plan) or trace (Chrome tracing timeline); dot and trace search in-process")
	flag.Parse()

	if *list {
		for _, m := range tapas.Models() {
			fmt.Println(m)
		}
		return
	}

	var names []string
	for _, n := range strings.Split(*model, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 1 {
		*model = names[0] // tolerate a stray trailing comma
	}
	switch {
	case *format != "text" && *format != "json" && *format != "dot" && *format != "trace":
		usage("unknown -format %q (text, json, dot or trace)", *format)
	case len(names) > 1 && (*spec != "" || *baseline != ""):
		usage("a comma-separated -model batch cannot be combined with -baseline or -spec")
	case len(names) > 1 && *format != "text":
		usage("a comma-separated -model batch prints text only (no -format %s)", *format)
	case *serveAddr != "" && *baseline != "":
		usage("-serve-addr supports TAPAS searches only (no -baseline)")
	case *serveAddr != "" && (*format == "dot" || *format == "trace"):
		usage("-format %s needs the in-process plan (no -serve-addr)", *format)
	}

	// Ctrl-C (or SIGTERM from a supervisor) cancels the in-flight search;
	// -timeout layers a deadline on top of the same context.
	ctx, stop := cli.Context(*timeout)
	defer stop()

	if *serveAddr != "" {
		c := service.NewClient(*serveAddr)
		if len(names) > 1 {
			if *progress {
				// The batch endpoint is synchronous; only single remote
				// searches stream SSE progress.
				fmt.Fprintln(os.Stderr, "note: -progress is ignored in remote batch mode")
			}
			reqs := make([]service.SearchRequest, len(names))
			for i, n := range names {
				reqs[i] = service.SearchRequest{Model: n, GPUs: *gpus, Workers: *workers, Exhaustive: *exhaustive}
			}
			resp, err := c.SearchBatch(ctx, reqs)
			if err != nil {
				fatal(err)
			}
			printBatch(names, *gpus, resp.Results, *verbose)
			return
		}
		resp := runRemote(ctx, c, *model, *spec, *gpus, *workers, *exhaustive, *progress)
		printResponse(resp, "TAPAS, remote, "+servedFrom(resp), *format, *verbose)
		return
	}

	eng := tapas.NewEngine(tapas.WithWorkers(*workers), tapas.WithExhaustive(*exhaustive))
	var observe func(tapas.ProgressEvent)
	if *progress {
		observe = printProgress
	}
	if len(names) > 1 {
		printBatch(names, *gpus, searchBatch(ctx, eng, names, *gpus, observe), *verbose)
		return
	}

	var (
		res *tapas.Result
		err error
	)
	switch {
	case *spec != "":
		f, ferr := os.Open(*spec)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		g, perr := graphio.Parse(f)
		f.Close()
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
		if *baseline != "" {
			res, err = eng.BaselineGraph(ctx, *baseline, g, *gpus)
		} else {
			res, err = eng.SearchSpec(ctx, tapas.SearchSpec{Graph: g, GPUs: *gpus, Progress: observe})
		}
	case *baseline != "":
		res, err = eng.Baseline(ctx, *baseline, *model, *gpus)
	default:
		res, err = eng.SearchSpec(ctx, tapas.SearchSpec{Model: *model, GPUs: *gpus, Progress: observe})
	}
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "dot":
		err = export.WriteDOT(os.Stdout, res.Strategy.Graph, res.Strategy)
	case "trace":
		err = sim.BuildTimeline(res.Strategy, sim.DefaultConfig(tapas.NewCluster(*gpus))).WriteChromeTrace(os.Stdout)
	default:
		system := "TAPAS"
		if *baseline != "" {
			system = *baseline
		} else if *exhaustive {
			system = "TAPAS-ES"
		}
		var resp *service.SearchResponse
		if resp, err = service.NewSearchResponse(res); err == nil {
			printResponse(resp, system, *format, *verbose)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usage rejects a flag combination with the flag package's exit code.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// fatal reports a failed search and exits: 130 when it was interrupted
// or timed out, 1 otherwise.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(cli.ExitCode(err))
}

// searchBatch runs a comma-separated -model batch in-process and answers
// it in the positional form of the daemon's POST /v1/search:batch, so
// both print alike.
func searchBatch(ctx context.Context, eng *tapas.Engine, names []string, gpus int, observe func(tapas.ProgressEvent)) []service.BatchSearchItem {
	specs := make([]tapas.SearchSpec, len(names))
	for i, n := range names {
		specs[i] = tapas.SearchSpec{Model: n, GPUs: gpus, Progress: observe}
	}
	results, err := eng.SearchAll(ctx, specs)
	if ctx.Err() != nil {
		fatal(ctx.Err())
	}
	items := make([]service.BatchSearchItem, len(names))
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range u.Unwrap() {
			var se *tapas.SpecError
			if errors.As(e, &se) {
				items[se.Index] = service.BatchSearchItem{Error: se.Err.Error(), Status: service.ErrorStatus(se.Err)}
			}
		}
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		resp, err := service.NewSearchResponse(res)
		if err != nil {
			items[i] = service.BatchSearchItem{Error: err.Error(), Status: service.ErrorStatus(err)}
			continue
		}
		items[i].Response = resp
	}
	return items
}

// runRemote posts the search to a tapas-serve daemon. With -progress it
// goes through the async job API and streams live SSE events to stderr;
// otherwise it is one synchronous POST /v1/search.
func runRemote(ctx context.Context, c *service.Client, model, spec string, gpus, workers int, exhaustive, progress bool) *service.SearchResponse {
	req := service.SearchRequest{
		Model:      model,
		GPUs:       gpus,
		Workers:    workers,
		Exhaustive: exhaustive,
	}
	if spec != "" {
		body, err := os.ReadFile(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		req.Model = ""
		req.Spec = string(body)
	}

	var (
		resp *service.SearchResponse
		err  error
	)
	if progress {
		resp, err = runRemoteJob(ctx, c, req)
	} else {
		resp, err = c.Search(ctx, req)
	}
	if err != nil {
		fatal(err)
	}
	return resp
}

// runRemoteJob drives the async path: submit, stream events, fetch the
// embedded result.
func runRemoteJob(ctx context.Context, c *service.Client, req service.SearchRequest) (*service.SearchResponse, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "submitted %s\n", st.ID)
	err = c.StreamEvents(ctx, st.ID, func(ev service.JobEvent) error {
		switch ev.Type {
		case service.EventState:
			fmt.Fprintf(os.Stderr, "[%s] %s\n", ev.JobID, ev.State)
		case service.EventProgress:
			fmt.Fprintf(os.Stderr, "[%8s] %s %s %d/%d classes, %d strategies examined\n",
				time.Duration(ev.ElapsedMS)*time.Millisecond, ev.Phase, ev.Kind, ev.ClassesDone, ev.ClassesTotal, ev.Examined)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if final.State != service.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return final.Result, nil
}

// servedFrom labels where a plan was found: the engine's memory cache
// ("cache", which wins when a store-restored plan is re-served from
// memory), its plan store ("store"), or a search it ran ("cold").
func servedFrom(resp *service.SearchResponse) string {
	switch {
	case resp.CacheHit:
		return "cache"
	case resp.StoreHit:
		return "store"
	}
	return "cold"
}

// printResponse writes one search result: its plan document for -format
// json, else a text report headed by system, the planner and where the
// plan came from.
func printResponse(resp *service.SearchResponse, system, format string, verbose bool) {
	if format == "json" {
		if resp.Plan == nil {
			fmt.Fprintln(os.Stderr, "response carries no plan document")
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp.Plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("model:        %s on %d GPUs (%s)\n", resp.Model, resp.GPUs, system)
	fmt.Printf("plan:         %s\n", resp.PlanSummary)
	fmt.Printf("search time:  total=%.3fs (group=%.3fs mine=%.3fs search=%.3fs)\n",
		resp.Timing.TotalSeconds, resp.Timing.GroupSeconds, resp.Timing.MineSeconds, resp.Timing.SearchSeconds)
	fmt.Printf("search space: %d unique subgraphs, %d strategies examined, %d pruned\n",
		resp.Timing.UniqueGraphs, resp.Timing.Examined, resp.Timing.Pruned)
	fmt.Printf("cost model:   %.4fs/iter predicted\n", resp.CostSeconds)
	fmt.Printf("simulated:    %.3fs/iter, %.2f TFLOPS/GPU\n",
		resp.Report.IterationSeconds, resp.Report.TFLOPSPerGPU)
	fmt.Printf("memory:       %.2f GiB/device (limit 32 GiB)\n", float64(resp.MemBytesPerDevice)/(1<<30))
	if verbose && resp.Plan != nil {
		fmt.Println()
		printAssignments(resp)
	}
}

// printBatch writes a batch's positional results, one line per model and
// one stderr line per failed item, and exits 1 when any item failed.
func printBatch(names []string, gpus int, items []service.BatchSearchItem, verbose bool) {
	if len(items) != len(names) {
		fmt.Fprintf(os.Stderr, "daemon answered %d results for %d requests\n", len(items), len(names))
		os.Exit(1)
	}
	failed := false
	for i, item := range items {
		if !item.OK() {
			failed = true
			fmt.Fprintf(os.Stderr, "error: %s on %d GPUs: %s (status %d)\n", names[i], gpus, item.Error, item.Status)
			continue
		}
		r := item.Response
		fmt.Printf("%-16s %2d GPUs  plan: %-60s  search=%.3fs  %.3fs/iter, %.2f TFLOPS/GPU (%s)\n",
			r.Model, r.GPUs, r.PlanSummary, r.Timing.TotalSeconds,
			r.Report.IterationSeconds, r.Report.TFLOPSPerGPU, servedFrom(r))
		if verbose && r.Plan != nil {
			printAssignments(r)
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printAssignments lists a plan's per-GraphNode pattern choices.
func printAssignments(resp *service.SearchResponse) {
	fmt.Println("assignment:")
	for _, a := range resp.Plan.Assignments {
		fmt.Printf("  %-40s %-20s in=%-3s out=%-3s  %s\n", a.Name, a.Pattern, a.In, a.Out, a.SRC)
	}
}

// printProgress renders one live pipeline event on stderr.
func printProgress(ev tapas.ProgressEvent) {
	switch {
	case ev.Kind == tapas.PhaseProgress:
		fmt.Fprintf(os.Stderr, "[%8s] %s/%d: %s %d/%d classes, %d strategies examined\n",
			ev.Elapsed.Round(time.Millisecond), ev.Model, ev.GPUs, ev.Phase, ev.ClassesDone, ev.ClassesTotal, ev.Examined)
	case ev.Kind == tapas.PhaseExit && ev.Phase == tapas.PhaseSearch:
		fmt.Fprintf(os.Stderr, "[%8s] %s/%d: %s done (%d classes, %d examined)\n",
			ev.Elapsed.Round(time.Millisecond), ev.Model, ev.GPUs, ev.Phase, ev.ClassesTotal, ev.Examined)
	case ev.Kind == tapas.PhaseEnter:
		fmt.Fprintf(os.Stderr, "[%8s] %s/%d: %s...\n",
			ev.Elapsed.Round(time.Millisecond), ev.Model, ev.GPUs, ev.Phase)
	}
}
