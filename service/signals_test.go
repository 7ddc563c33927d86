package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tapas/internal/trace"
	"tapas/service"
)

// TestColdSearchSignals pins what a search reports besides its answer —
// for a folded cold search, its cache-hit repeat, an exhaustive cold
// search and a :batch of two cold searches:
//
//   - the spans of the request's trace, each with its parent's name
//     (the pipeline stages are children of engine.search; a hit runs
//     no pipeline);
//   - one tapas_phase_duration_seconds sample per stage that ran, each
//     strictly positive, and none on the cache hit;
//   - the keys of the slow_request line, in order.
func TestColdSearchSignals(t *testing.T) {
	var (
		mu   sync.Mutex
		slow []string
	)
	svc, err := service.New(service.Config{
		Trace:     trace.NewRecorder(trace.Config{Process: "replica", SampleEvery: 1}),
		TraceSlow: time.Nanosecond,
		Logf: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "slow_request ") {
				mu.Lock()
				slow = append(slow, line)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})

	folded := []string{"group", "mine", "search", "enum", "assemble", "reconstruct", "simulate"}
	exhaustive := []string{"group", "search", "enum", "assemble", "reconstruct", "simulate"}
	outer := []string{"service.search<POST /v1/search", "engine.search<service.search"}
	stageSpans := func(names ...string) []string {
		out := append([]string{}, outer...)
		for _, n := range names {
			out = append(out, n+"<engine.search")
		}
		return out
	}
	slowKeys := "trace client model gpus dur cache_hit store_hit " +
		"group mine search enum assemble reconstruct simulate"

	cases := []struct {
		name, path, body string
		spans            []string // every non-root span as name<parent, by start
		samples          []string // phase labels gaining perLabel samples each
		perLabel         int
		slow             int // slow_request lines
	}{
		{
			name: "folded", path: "/v1/search", body: `{"model":"twotower-small","gpus":4}`,
			spans:   stageSpans("group", "mine", "enum", "assemble", "reconstruct", "simulate"),
			samples: folded, perLabel: 1, slow: 1,
		},
		{
			name: "cache-hit", path: "/v1/search", body: `{"model":"twotower-small","gpus":4}`,
			spans: []string{"service.search<POST /v1/search", "cache<service.search"},
			slow:  1,
		},
		{
			name: "exhaustive", path: "/v1/search", body: `{"model":"twotower-small","gpus":4,"exhaustive":true}`,
			spans:   stageSpans("group", "enum", "assemble", "reconstruct", "simulate"),
			samples: exhaustive, perLabel: 1, slow: 1,
		},
		{
			name: "batch", path: "/v1/search:batch",
			body:    `{"requests":[{"model":"twotower-small","gpus":2},{"model":"twotower-small","gpus":8}]}`,
			samples: folded, perLabel: 2,
		},
	}
	for i, tc := range cases {
		traceID := fmt.Sprintf("c01d%012x", i+1)
		before := phaseSeries(t, srv.URL)
		mu.Lock()
		slowBefore := len(slow)
		mu.Unlock()

		req, _ := http.NewRequest(http.MethodPost, srv.URL+tc.path, strings.NewReader(tc.body))
		req.Header.Set(trace.TraceHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, resp.StatusCode, body)
		}

		if tc.spans != nil {
			if got := spanParents(t, srv.URL, traceID, len(tc.spans)); strings.Join(got, " ") != strings.Join(tc.spans, " ") {
				t.Errorf("%s: spans\n got %v\nwant %v", tc.name, got, tc.spans)
			}
		}

		after := phaseSeries(t, srv.URL)
		ran := make(map[string]bool, len(tc.samples))
		for _, p := range tc.samples {
			ran[p] = true
		}
		for _, p := range folded {
			want := 0
			if ran[p] {
				want = tc.perLabel
			}
			if got := after[p].count - before[p].count; got != float64(want) {
				t.Errorf("%s: phase %q gained %v samples, want %d", tc.name, p, got, want)
			}
			if ran[p] && after[p].sum <= before[p].sum {
				t.Errorf("%s: phase %q samples sum to %v, want > 0", tc.name, p, after[p].sum-before[p].sum)
			}
		}

		mu.Lock()
		lines := append([]string{}, slow[slowBefore:]...)
		mu.Unlock()
		if tc.path != "/v1/search" {
			continue
		}
		if len(lines) != tc.slow {
			t.Fatalf("%s: %d slow_request lines, want %d: %q", tc.name, len(lines), tc.slow, lines)
		}
		for _, line := range lines {
			var keys []string
			for _, f := range strings.Fields(line)[1:] {
				k, _, _ := strings.Cut(f, "=")
				keys = append(keys, k)
			}
			if got := strings.Join(keys, " "); got != slowKeys {
				t.Errorf("%s: slow_request keys\n got %s\nwant %s", tc.name, got, slowKeys)
			}
		}
	}
}

// phaseSample is one label's _count and _sum of
// tapas_phase_duration_seconds.
type phaseSample struct{ count, sum float64 }

var phaseSeriesLine = regexp.MustCompile(`^tapas_phase_duration_seconds_(count|sum)\{phase="(\w+)"\} (\S+)$`)

// phaseSeries scrapes /metrics for every phase label's count and sum.
func phaseSeries(t *testing.T, base string) map[string]phaseSample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	out := make(map[string]phaseSample)
	for _, line := range strings.Split(string(text), "\n") {
		m := phaseSeriesLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		s := out[m[2]]
		if m[1] == "count" {
			s.count = v
		} else {
			s.sum = v
		}
		out[m[2]] = s
	}
	return out
}

// spanParents polls the trace until it holds the request root plus n
// more spans (the root is recorded as the response is written), then
// renders every non-root span as name<parent-name, in start order.
func spanParents(t *testing.T, base, id string, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc trace.TraceDoc
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if len(doc.Spans) >= n+1 || time.Now().After(deadline) {
			byID := make(map[string]string, len(doc.Spans))
			for _, s := range doc.Spans {
				byID[s.SpanID] = s.Name
			}
			sort.SliceStable(doc.Spans, func(i, j int) bool { return doc.Spans[i].Start < doc.Spans[j].Start })
			var out []string
			for _, s := range doc.Spans {
				if parent, ok := byID[s.ParentID]; ok {
					out = append(out, s.Name+"<"+parent)
				}
			}
			return out
		}
		time.Sleep(20 * time.Millisecond)
	}
}
