package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tapas"
	"tapas/service"
	"tapas/store"
)

// newTestServer boots the full handler stack over a fresh service.
func newTestServer(t *testing.T, cfg ...service.Config) (*httptest.Server, *service.Client) {
	t.Helper()
	var c service.Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	svc, err := service.New(c)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, service.NewClient(srv.URL)
}

func TestHTTPSyncSearchAndCacheHit(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	req := service.SearchRequest{Model: "t5-100M", GPUs: 8}

	cold, err := c.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SchemaVersion != service.SchemaVersion || cold.CacheHit {
		t.Fatalf("cold response wrong: version=%d hit=%v", cold.SchemaVersion, cold.CacheHit)
	}
	if cold.Plan == nil || len(cold.Plan.Assignments) == 0 {
		t.Fatal("plan missing from response")
	}
	if cold.Model != "t5-100M" || cold.Report.TFLOPSPerGPU <= 0 {
		t.Errorf("cold response: model %q, %v TFLOPS/GPU", cold.Model, cold.Report.TFLOPSPerGPU)
	}
	warm, err := c.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("repeated POST /v1/search must be served from the cache")
	}
	if warm.PlanSummary != cold.PlanSummary {
		t.Errorf("cached plan %q != cold %q", warm.PlanSummary, cold.PlanSummary)
	}
}

func TestHTTPErrorBodies(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()

	// Validation error → 400 with JSON body.
	_, err := c.Search(ctx, service.SearchRequest{GPUs: 8})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if apiErr.Message == "" {
		t.Error("error body carried no message")
	}

	// Unknown job → 404.
	_, err = c.Job(ctx, "job-does-not-exist")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("want 404, got %v", err)
	}

	// Malformed JSON → 400 with JSON body.
	resp, err := http.Post(srv.URL+"/v1/search", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("malformed body: no JSON error envelope (%v)", err)
	}
}

// TestHTTPUnknownModelIs404: the model name space is enumerable via
// GET /v1/models, so a miss answers 404 — not 400, not 500 — on both
// the sync and async paths.
func TestHTTPUnknownModelIs404(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	var apiErr *service.APIError
	_, err := c.Search(ctx, service.SearchRequest{Model: "nope-13B", GPUs: 8})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("sync search: want 404 APIError, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "nope-13B") {
		t.Errorf("error body does not name the model: %q", apiErr.Message)
	}
	_, err = c.Submit(ctx, service.SearchRequest{Model: "nope-13B", GPUs: 8})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("job submit: want 404 APIError, got %v", err)
	}
}

func TestHTTPBatchSearch(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	resp, err := c.SearchBatch(ctx, []service.SearchRequest{
		{Model: "t5-100M", GPUs: 8},
		{Model: "nope-13B", GPUs: 8},
		{GPUs: 8},
		{Model: "twotower-small", GPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(resp.Results))
	}
	// One bad spec does not fail the batch; results stay positional.
	if it := resp.Results[0]; !it.OK() || it.Response == nil || it.Response.Model != "t5-100M" {
		t.Errorf("item 0: %+v", it)
	}
	if it := resp.Results[1]; it.OK() || it.Status != http.StatusNotFound {
		t.Errorf("item 1 (unknown model): %+v", it)
	}
	if it := resp.Results[2]; it.OK() || it.Status != http.StatusBadRequest {
		t.Errorf("item 2 (invalid): %+v", it)
	}
	if it := resp.Results[3]; !it.OK() || it.Response == nil || it.Response.Model != "twotower-small" {
		t.Errorf("item 3: %+v", it)
	}

	// A batch item is a search like any other: the repeat is a cache hit.
	again, err := c.SearchBatch(ctx, []service.SearchRequest{{Model: "t5-100M", GPUs: 8}})
	if err != nil || len(again.Results) != 1 || !again.Results[0].OK() || !again.Results[0].Response.CacheHit {
		t.Errorf("repeated batch item: %+v, %v", again, err)
	}

	// Envelope failures are whole-call errors.
	var apiErr *service.APIError
	if _, err := c.SearchBatch(ctx, nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: want 400, got %v", err)
	}
}

// TestHTTPWarmRestartFromStore is the daemon-level round trip: a plan
// searched by one server generation is served by the next from the
// persistent store, without re-running the pipeline.
func TestHTTPWarmRestartFromStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// Generation 1: cold search, then a full drain (flushes the store).
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(st1)}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(service.NewHandler(svc1))
	c1 := service.NewClient(srv1.URL)
	cold, err := c1.Search(ctx, service.SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cold.StoreHit || cold.CacheHit {
		t.Fatalf("first-generation search must be cold: %+v", cold.ResultSummary)
	}
	srv1.Close()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil { // drains the write-behind queue
		t.Fatal(err)
	}

	// Generation 2: fresh service over the same directory.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(st2)}})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(service.NewHandler(svc2))
	defer srv2.Close()
	defer svc2.Shutdown(ctx)
	c2 := service.NewClient(srv2.URL)

	warm, err := c2.Search(ctx, service.SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.StoreHit {
		t.Fatal("second-generation search must be served from the store")
	}
	if warm.CacheHit {
		t.Error("store hit mislabeled as memory-cache hit")
	}
	if warm.PlanSummary != cold.PlanSummary || warm.CostSeconds != cold.CostSeconds ||
		warm.Report != cold.Report || warm.Timing != cold.Timing {
		t.Errorf("restored response diverged:\ncold: %+v\nwarm: %+v", cold.ResultSummary, warm.ResultSummary)
	}

	// The hit is visible in /v1/healthz.
	health, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Store == nil {
		t.Fatal("healthz missing store stats on a store-backed daemon")
	}
	if health.Store.Hits != 1 || health.Store.Entries != 1 {
		t.Errorf("healthz store stats: %+v", health.Store)
	}
}

func TestHTTPModelsAndHealth(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range models {
		if m == "t5-100M" {
			found = true
		}
	}
	if !found {
		t.Errorf("GET /v1/models missing t5-100M: %v", models)
	}

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.QueueCapacity == 0 || health.JobWorkers == 0 {
		t.Errorf("healthz not populated: %+v", health)
	}
	if health.Draining {
		t.Error("healthz reports draining on a live server")
	}
}

func TestHTTPAsyncJobWithSSE(t *testing.T) {
	// One job worker, and a blocker occupying it: the job under test
	// stays queued until the SSE stream is attached, so no progress
	// event can be missed.
	_, c := newTestServer(t, service.Config{JobWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Submit(ctx, service.SearchRequest{Model: "t5-770M", GPUs: 8}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, service.SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.JobQueued && st.State != service.JobRunning {
		t.Fatalf("submitted job in state %s", st.State)
	}

	var progress int
	var final service.JobEvent
	err = c.StreamEvents(ctx, st.ID, func(ev service.JobEvent) error {
		if ev.Type == service.EventProgress {
			progress++
		}
		final = ev
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Error("SSE stream carried no progress events for a cold search")
	}
	if final.Type != service.EventState || final.State != service.JobDone {
		t.Fatalf("stream ended on %+v, want done", final)
	}

	got, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.JobDone || got.Result == nil || got.Result.Plan == nil ||
		got.Result.Plan.SchemaVersion != service.PlanSchemaVersion {
		t.Fatalf("done job status incomplete: %+v", got)
	}
	if got.Result.Model != "t5-100M" {
		t.Errorf("result model %q", got.Result.Model)
	}
}

func TestHTTPCancel(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	st, err := c.Submit(ctx, service.SearchRequest{Model: "t5-1.4B", GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitDone(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.JobCancelled && final.State != service.JobDone {
		t.Errorf("after cancel: %s", final.State)
	}
}

func TestHTTPInlineSpecJob(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	spec := "model wire-mlp\ninput x f32 16 128\ndense fc x 256 relu\ndense out fc 128 none\nloss l out\n"

	resp, err := c.Search(ctx, service.SearchRequest{Spec: spec, GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "wire-mlp" {
		t.Errorf("spec search model = %q", resp.Model)
	}
}
