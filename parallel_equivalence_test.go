package tapas_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tapas"
	"tapas/service"
	"tapas/service/dispatch"
)

// equivalenceSpecs are the model × GPU-count grid the determinism contract
// is verified on: a transformer, an MoE and a CNN (the three architecture
// families of the paper's evaluation), each on one- and two-node clusters.
var equivalenceSpecs = []struct {
	model string
	gpus  int
}{
	{"t5-100M", 4}, {"t5-100M", 8},
	{"moe-380M", 4}, {"moe-380M", 8},
	{"resnet-26M", 4}, {"resnet-26M", 8},
	{"bert-base", 4}, {"bert-base", 8},
}

// coldSearch runs one search on a fresh cache-less Engine, so every call
// is the cold pipeline and the compared Results share nothing.
func coldSearch(model string, gpus int, opts ...tapas.Option) (*tapas.Result, error) {
	eng := tapas.NewEngine(append([]tapas.Option{tapas.WithCache(0)}, opts...)...)
	return eng.Search(context.Background(), model, gpus)
}

// TestSearchWorkerEquivalence is the determinism contract of the parallel
// search: for every spec, Workers=1 and Workers=N must produce identical
// strategies (description, cost, memory) and identical search effort
// (Examined) — parallelism is a wall-clock optimization, never a
// behavioral one.
func TestSearchWorkerEquivalence(t *testing.T) {
	for _, spec := range equivalenceSpecs {
		spec := spec
		t.Run(spec.model, func(t *testing.T) {
			serial, err := coldSearch(spec.model, spec.gpus, tapas.WithWorkers(1))
			if err != nil {
				t.Fatalf("serial search: %v", err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := coldSearch(spec.model, spec.gpus, tapas.WithWorkers(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got, want := par.Strategy.Describe(), serial.Strategy.Describe(); got != want {
					t.Errorf("workers=%d: plan %q != serial %q", workers, got, want)
				}
				if got, want := par.Strategy.Cost.Total(), serial.Strategy.Cost.Total(); got != want {
					t.Errorf("workers=%d: cost %v != serial %v", workers, got, want)
				}
				if got, want := par.Examined, serial.Examined; got != want {
					t.Errorf("workers=%d: examined %d != serial %d", workers, got, want)
				}
				if got, want := par.Strategy.MemPerDev, serial.Strategy.MemPerDev; got != want {
					t.Errorf("workers=%d: mem %d != serial %d", workers, got, want)
				}
			}
		})
	}
}

// TestMiningAssemblyWorkerSweep is the determinism contract of the
// parallel mining level expansion and parallel assembly scoring/repair:
// for every registered model, Workers ∈ {1, 2, 8} must produce
// byte-identical PlanJSON documents (the full per-node wire plan, not
// just the summary) and identical search-shape counters — Examined
// candidates and mining Levels. Worker counts only move wall-clock.
// The CI race job runs this sweep under -race, so any unsynchronized
// sharing between scoring or expansion workers fails loudly here.
func TestMiningAssemblyWorkerSweep(t *testing.T) {
	models := tapas.Models()
	if testing.Short() {
		models = []string{"t5-100M", "moe-380M", "resnet-26M"}
	}
	const gpus = 8
	for _, model := range models {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			var wantPlan []byte
			var want *tapas.Result
			for _, workers := range []int{1, 2, 8} {
				// A fresh cache-less engine per worker count: every search
				// runs the cold mining + assembly pipeline.
				eng := tapas.NewEngine(tapas.WithWorkers(workers), tapas.WithCache(0))
				res, err := eng.Search(context.Background(), model, gpus)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				plan, err := service.NewPlan(res.Strategy)
				if err != nil {
					t.Fatalf("workers=%d: plan: %v", workers, err)
				}
				b, err := json.Marshal(plan)
				if err != nil {
					t.Fatalf("workers=%d: marshal: %v", workers, err)
				}
				if workers == 1 {
					want, wantPlan = res, b
					continue
				}
				if !bytes.Equal(b, wantPlan) {
					t.Errorf("workers=%d: PlanJSON differs from serial (%d vs %d bytes)", workers, len(b), len(wantPlan))
				}
				if res.Examined != want.Examined {
					t.Errorf("workers=%d: examined %d != serial %d", workers, res.Examined, want.Examined)
				}
				if res.MineLevels != want.MineLevels {
					t.Errorf("workers=%d: mine levels %d != serial %d", workers, res.MineLevels, want.MineLevels)
				}
				if res.Classes != want.Classes {
					t.Errorf("workers=%d: classes %d != serial %d", workers, res.Classes, want.Classes)
				}
			}
		})
	}
}

// TestExhaustiveWorkerEquivalence covers the same contract on the
// TAPAS-ES path, whose single decision tree is split into prefix tasks.
func TestExhaustiveWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		// The ES budget is fixed at 2^15 candidates; the tight-budget
		// equivalent runs in internal/strategy's race tests.
		t.Skip("exhaustive enumeration is slow under -short/-race")
	}
	for _, spec := range []struct {
		model string
		gpus  int
	}{{"t5-100M", 8}, {"resnet-26M", 4}} {
		serial, err := coldSearch(spec.model, spec.gpus, tapas.WithExhaustive(true), tapas.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s serial: %v", spec.model, err)
		}
		par, err := coldSearch(spec.model, spec.gpus, tapas.WithExhaustive(true), tapas.WithWorkers(8))
		if err != nil {
			t.Fatalf("%s workers=8: %v", spec.model, err)
		}
		if got, want := par.Strategy.Describe(), serial.Strategy.Describe(); got != want {
			t.Errorf("%s: ES plan %q != serial %q", spec.model, got, want)
		}
		if par.Examined != serial.Examined {
			t.Errorf("%s: ES examined %d != serial %d", spec.model, par.Examined, serial.Examined)
		}
	}
}

// TestSearchAllMatchesIndividual checks the batch entry point: results
// come back positionally and bit-identical to sequential Search calls.
func TestSearchAllMatchesIndividual(t *testing.T) {
	specs := []tapas.SearchSpec{
		{Model: "t5-100M", GPUs: 8},
		{Model: "moe-380M", GPUs: 4},
		{Model: "resnet-26M", GPUs: 8},
	}
	batch, err := tapas.NewEngine(tapas.WithCache(0)).SearchAll(context.Background(), specs)
	if err != nil {
		t.Fatalf("SearchAll: %v", err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("SearchAll returned %d results for %d specs", len(batch), len(specs))
	}
	for i, spec := range specs {
		single, err := coldSearch(spec.Model, spec.GPUs)
		if err != nil {
			t.Fatalf("Search(%s): %v", spec.Model, err)
		}
		if batch[i] == nil {
			t.Fatalf("spec %d: nil result", i)
		}
		if batch[i].ModelName != spec.Model {
			t.Errorf("spec %d: result for %q, want %q (positional contract)", i, batch[i].ModelName, spec.Model)
		}
		if got, want := batch[i].Strategy.Describe(), single.Strategy.Describe(); got != want {
			t.Errorf("spec %d: batch plan %q != individual %q", i, got, want)
		}
		if got, want := batch[i].Strategy.Cost.Total(), single.Strategy.Cost.Total(); got != want {
			t.Errorf("spec %d: batch cost %v != individual %v", i, got, want)
		}
	}
}

// newReplica stands up one in-process "fleet replica": a real Service
// behind a real HTTP handler, exactly what a remote tapas-serve exposes.
func newReplica(t *testing.T) string {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return srv.URL
}

// TestDistributedSearchEquivalence is the determinism contract of the
// distributed cold search: a search scattered across an in-process
// fleet — two real replicas, one replica erroring mid-scatter, and one
// hanging past the task deadline — selects exactly the plan, cost,
// memory and search effort of a serial single-process search, for every
// registered model. Misbehaving peers cost wall-clock time, never
// correctness.
func TestDistributedSearchEquivalence(t *testing.T) {
	errPeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
	}))
	defer errPeer.Close()
	hangPeer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the request until the coordinator's deadline abandons it.
		// The body must be drained first: the server only notices the
		// client disconnect via its background read, which doesn't run
		// while request body bytes sit unconsumed. The timer is a
		// backstop so Close never waits on a wedged handler.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	}))
	defer hangPeer.Close()

	coord := dispatch.New(dispatch.Options{
		Peers:         []string{newReplica(t), errPeer.URL, hangPeer.URL, newReplica(t)},
		TaskTimeout:   2 * time.Second,
		ProbeInterval: -1, // keep misbehaving peers out once marked
		Logf:          t.Logf,
	})
	defer coord.Close()

	serialEng := tapas.NewEngine(tapas.WithWorkers(1), tapas.WithCache(0))
	distEng := tapas.NewEngine(tapas.WithTaskRunner(coord.Runner), tapas.WithCache(0))

	models := tapas.Models()
	if testing.Short() {
		models = []string{"t5-100M", "moe-380M", "resnet-26M"}
	}
	const gpus = 8
	for _, model := range models {
		serial, err := serialEng.Search(context.Background(), model, gpus)
		if err != nil {
			t.Fatalf("%s serial: %v", model, err)
		}
		dist, err := distEng.Search(context.Background(), model, gpus)
		if err != nil {
			t.Fatalf("%s distributed: %v", model, err)
		}
		if got, want := dist.Strategy.Describe(), serial.Strategy.Describe(); got != want {
			t.Errorf("%s: distributed plan %q != serial %q", model, got, want)
		}
		if got, want := dist.Strategy.Cost.Total(), serial.Strategy.Cost.Total(); got != want {
			t.Errorf("%s: distributed cost %v != serial %v", model, got, want)
		}
		if got, want := dist.Strategy.MemPerDev, serial.Strategy.MemPerDev; got != want {
			t.Errorf("%s: distributed mem %d != serial %d", model, got, want)
		}
		if got, want := dist.Examined, serial.Examined; got != want {
			t.Errorf("%s: distributed examined %d != serial %d", model, got, want)
		}
	}

	fs := coord.FleetStats()
	t.Logf("fleet stats: %+v", fs)
	if fs.TasksScattered == 0 {
		t.Error("no tasks were executed by fleet peers")
	}
	if fs.TasksFailedOver == 0 {
		t.Error("the erroring and hanging peers produced no failovers")
	}
	if fs.PeersHealthy > 2 {
		t.Errorf("%d peers marked healthy; the erroring/hanging peers should be out", fs.PeersHealthy)
	}
}

// TestSearchAllPartialFailure: one bad spec reports its error without
// aborting the good specs.
func TestSearchAllPartialFailure(t *testing.T) {
	specs := []tapas.SearchSpec{
		{Model: "t5-100M", GPUs: 8},
		{Model: "no-such-model", GPUs: 8},
		{Model: "resnet-26M", GPUs: 4},
	}
	results, err := tapas.NewEngine(tapas.WithCache(0)).SearchAll(context.Background(), specs)
	if err == nil {
		t.Fatal("want error for unknown model")
	}
	if !strings.Contains(err.Error(), "no-such-model") || !strings.Contains(err.Error(), "spec 1") {
		t.Errorf("error %q does not identify the failing spec", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("good specs aborted by the failing one")
	}
	if results[1] != nil {
		t.Error("failed spec returned a non-nil result")
	}
}
