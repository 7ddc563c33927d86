package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapas"
)

// update regenerates the golden fixtures:
//
//	go test ./service -run TestGoldenPlans -update
//
// Regenerate ONLY for a deliberate, versioned wire change (see the
// package comment's versioning policy) — a surprise diff in these
// fixtures is exactly what this harness exists to catch.
var update = flag.Bool("update", false, "rewrite the golden PlanJSON fixtures")

// goldenGPUCounts are the device counts every registered model is
// pinned at. 4 keeps a whole class of single-node plans; 8 is the
// paper's per-node testbed width.
var goldenGPUCounts = []int{4, 8}

// goldenPath names one fixture.
func goldenPath(model string, gpus int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%dgpu.json", model, gpus))
}

// normalizePlan renders a plan document in the one canonical byte form
// the fixtures are compared in: two-space-indented JSON with a trailing
// newline. Field order is the struct's declaration order, so any
// schema drift — a renamed tag, a reordered field, a changed unit —
// moves bytes.
func normalizePlan(p *PlanJSON) ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// TestGoldenPlans pins the PlanJSON v1 wire form: every registered
// model searched at every golden GPU count must serialize byte-for-byte
// to its committed fixture. The search itself is deterministic (worker
// counts never change the plan), so a diff here is a wire change — a
// deliberate one needs a schema-version decision plus -update; an
// accidental one is a caught regression.
func TestGoldenPlans(t *testing.T) {
	eng := tapas.NewEngine()
	for _, model := range tapas.Models() {
		for _, gpus := range goldenGPUCounts {
			model, gpus := model, gpus
			t.Run(fmt.Sprintf("%s_%dgpu", model, gpus), func(t *testing.T) {
				t.Parallel()
				res, err := eng.Search(context.Background(), model, gpus)
				if err != nil {
					t.Fatalf("search: %v", err)
				}
				plan, err := NewPlan(res.Strategy)
				if err != nil {
					t.Fatalf("render plan: %v", err)
				}
				got, err := normalizePlan(plan)
				if err != nil {
					t.Fatalf("normalize: %v", err)
				}
				path := goldenPath(model, gpus)
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden fixture (new model? run `go test ./service -run TestGoldenPlans -update`): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("PlanJSON wire form changed for %s at %d GPUs:\n%s\n(an intended schema change needs a version decision — see the package comment — then -update)",
						model, gpus, firstDiff(want, got))
				}
			})
		}
	}
}

// TestGoldenFixturesMatchRegistry fails when a fixture is orphaned
// (its model left the registry) or the fixture set is incomplete, so
// the golden directory can never drift from the model zoo silently.
func TestGoldenFixturesMatchRegistry(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	want := make(map[string]bool)
	for _, model := range tapas.Models() {
		for _, gpus := range goldenGPUCounts {
			want[fmt.Sprintf("%s_%dgpu.json", model, gpus)] = true
		}
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden directory unreadable (run -update once): %v", err)
	}
	got := make(map[string]bool)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		if !want[e.Name()] {
			t.Errorf("orphaned fixture %s: no registered model produces it (delete it or re-register the model)", e.Name())
		}
		got[e.Name()] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("missing fixture %s (run -update)", name)
		}
	}
}

// TestGoldenFixturesRoundTrip: every committed fixture must parse as a
// current-version plan document and re-encode to the same bytes — the
// reader and writer agree on the whole corpus, not just today's output.
func TestGoldenFixturesRoundTrip(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden directory unreadable (run -update once): %v", err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s: does not parse: %v", e.Name(), err)
			continue
		}
		if p.SchemaVersion != PlanSchemaVersion {
			t.Errorf("%s: schema_version %d, want %d", e.Name(), p.SchemaVersion, PlanSchemaVersion)
		}
		again, err := normalizePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: decode→encode is not the identity:\n%s", e.Name(), firstDiff(data, again))
		}
	}
}

// searchCounters are the deterministic columns of one cold search that
// the plan fixtures do not carry: how far the search space folded, how
// many Apriori levels mining ran, how many candidates enumeration
// priced, and the simulated throughput of the winner.
type searchCounters struct {
	Classes      int     `json:"classes"`
	MineLevels   int     `json:"mine_levels"`
	Examined     int     `json:"examined"`
	TFLOPSPerGPU float64 `json:"tflops_per_gpu"`
}

// TestPinnedSearchCounters holds the counters of four models at 8 GPUs
// (deep, deeper, MoE, convolutional) to testdata/search_counters.json,
// at one worker and at four: a kernel change that moves any of them has
// changed what the search does, not only how fast, and re-pins them
// with -update and the argument in its commit message.
func TestPinnedSearchCounters(t *testing.T) {
	const gpus = 8
	path := filepath.Join("testdata", "search_counters.json")
	want := make(map[string]searchCounters)
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing fixture (run `go test ./service -run TestPinnedSearchCounters -update`): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]searchCounters)
	for _, workers := range []int{1, 4} {
		eng := tapas.NewEngine(tapas.WithWorkers(workers), tapas.WithCache(0))
		for _, model := range []string{"t5-100M", "t5-770M", "moe-380M", "resnet-26M"} {
			res, err := eng.Search(context.Background(), model, gpus)
			if err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			key := fmt.Sprintf("%s_%dgpu", model, gpus)
			got[key] = searchCounters{res.Classes, res.MineLevels, res.Examined, res.Report.TFLOPSPerGPU}
			if !*update && got[key] != want[key] {
				t.Errorf("%s, %d workers: counters %+v, pinned %+v", key, workers, got[key], want[key])
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff renders the first differing line of two byte slices, with
// one line of context, for a readable failure message.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: golden %d lines, got %d lines", len(wl), len(gl))
}
