package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"tapas"
	"tapas/service"
)

// update regenerates expected.json from the engine:
//
//	go test -run TestExpected -update
//
// Regenerate only together with a deliberate change of the golden plans
// in service/testdata/golden; the test then still requires the 4- and
// 8-GPU entries to agree with those fixtures byte for byte.
var update = flag.Bool("update", false, "rewrite expected.json")

var benchGPUCounts = []int{4, 8, 16, 32}

// coldPlan searches one key on a fresh engine without a cache and
// returns the plan in the golden byte form.
func coldPlan(t *testing.T, k key) ([]byte, *service.PlanJSON) {
	t.Helper()
	res, err := tapas.NewEngine(tapas.WithCache(0)).Search(context.Background(), k.Model, k.GPUs)
	if err != nil {
		t.Fatalf("%v: engine refused the key: %v", k, err)
	}
	plan, err := service.NewPlan(res.Strategy)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	norm, err := normalizePlan(plan)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return norm, plan
}

// TestExpected pins expected.json three ways: it covers the whole key
// space, it agrees byte for byte with service/testdata/golden on every
// key both hold, and two cold searches of every key (so of every
// workload's key set) both produce exactly the pinned plan.
func TestExpected(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		var doc struct {
			Keys []expectedEntry `json:"keys"`
		}
		for _, m := range tapas.Models() {
			for _, g := range benchGPUCounts {
				k := key{m, g}
				norm, plan := coldPlan(t, k)
				h := sha256.Sum256(norm)
				doc.Keys = append(doc.Keys, expectedEntry{k, hex.EncodeToString(h[:]), plan.CostSeconds})
			}
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("expected.json rewritten; run the test again without -update")
		return
	}

	entries, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tapas.Models()) * len(benchGPUCounts); len(entries) != want || want != 88 {
		t.Fatalf("expected.json holds %d keys, the key space has %d (want 88)", len(entries), want)
	}
	golden := 0
	for _, e := range entries {
		e := e
		t.Run(e.key.String(), func(t *testing.T) {
			t.Parallel()
			first, plan := coldPlan(t, e.key)
			second, _ := coldPlan(t, e.key)
			if !bytes.Equal(first, second) {
				t.Fatal("two cold searches gave different plans")
			}
			h := sha256.Sum256(first)
			if hex.EncodeToString(h[:]) != e.PlanSHA256 {
				t.Fatal("plan differs from expected.json")
			}
			if plan.CostSeconds != e.CostSeconds {
				t.Fatalf("cost_seconds %v, expected.json says %v", plan.CostSeconds, e.CostSeconds)
			}
			if e.GPUs == 4 || e.GPUs == 8 {
				want, err := os.ReadFile(goldenPath(root, e.key))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, want) {
					t.Fatal("plan differs from the golden fixture")
				}
				gh := sha256.Sum256(want)
				if hex.EncodeToString(gh[:]) != e.PlanSHA256 {
					t.Fatal("expected.json disagrees with the golden fixture")
				}
			}
		})
		if e.GPUs == 4 || e.GPUs == 8 {
			golden++
		}
	}
	if golden != 44 {
		t.Fatalf("%d keys overlap the golden fixtures, want 44", golden)
	}
	// Every workload's key set lies inside the pinned key space.
	known := map[key]bool{}
	for _, e := range entries {
		known[e.key] = true
	}
	for _, k := range append(append([]key{}, coldDeepKeys...), coldWideKeys...) {
		if !known[k] {
			t.Errorf("cold key %v is not in expected.json", k)
		}
	}
}

// TestManifestMatchesFile keeps BENCHMARK.json equal to the table the
// benchmark reports from, and the table inside the contract's limits.
func TestManifestMatchesFile(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if w.run == nil || w.op == "" || w.tail == "" || w.rate == "" {
			t.Errorf("%s: incomplete", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEndMetrics {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayerMetrics))
	}
	for _, m := range perLayerMetrics {
		check(m.Name, m.Unit)
	}
	// 4 + 22 runs per workload, with set-up, must fit the driver's cap.
	if runs := 4 + 22*len(workloads); runs*runSeconds > 3420 {
		t.Errorf("%d runs of %d s exceed the cap before set-up is counted", runs, runSeconds)
	}
}
