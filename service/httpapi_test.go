package service_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tapas"
	"tapas/service"
	"tapas/store"
	"tapas/store/remotebackend"
	"tapas/store/replicate"
)

// newStoreServer boots the full daemon handler over a store-backed
// service.
func newStoreServer(t *testing.T) (*httptest.Server, *service.Client, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(st)}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		if err := svc.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		st.Close()
	})
	return srv, service.NewClient(srv.URL), st
}

// TestStorePeerEndpointsServeTheCorpus: the daemon's /v1/store surface
// is a usable replication peer — a second service replicating with it
// reads the first one's plan through and answers with store_hit without
// re-searching.
func TestStorePeerEndpointsServeTheCorpus(t *testing.T) {
	srvA, ca, stA := newStoreServer(t)
	ctx := context.Background()

	cold, err := ca.Search(ctx, service.SearchRequest{Model: "twotower-small", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cold.StoreHit || cold.CacheHit {
		t.Fatalf("first search must be cold: %+v", cold.ResultSummary)
	}
	stA.Flush() // write-behind → corpus

	// Replica B replicates with A over the peer protocol.
	localB, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	replB, err := replicate.New(replicate.Options{
		Local:         localB,
		Peers:         []replicate.Peer{{Name: srvA.URL, Backend: remotebackend.New(srvA.URL)}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replB.Close()
	stB, err := store.Open(store.Options{Backend: replB})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	svcB, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(stB)}})
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(service.NewHandler(svcB))
	defer srvB.Close()
	defer svcB.Shutdown(ctx)
	cb := service.NewClient(srvB.URL)

	warm, err := cb.Search(ctx, service.SearchRequest{Model: "twotower-small", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.StoreHit {
		t.Fatal("replica B did not serve A's plan from the store")
	}
	if warm.PlanSummary != cold.PlanSummary || warm.Report != cold.Report {
		t.Errorf("replicated response diverged:\nA: %+v\nB: %+v", cold.ResultSummary, warm.ResultSummary)
	}
}

// TestStorePeerProtocolHasNoDelete: no replica removes another's
// records, so the daemon answers DELETE on a stored record with 405
// and keeps it.
func TestStorePeerProtocolHasNoDelete(t *testing.T) {
	srv, c, st := newStoreServer(t)
	ctx := context.Background()
	if _, err := c.Search(ctx, service.SearchRequest{Model: "twotower-small", GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	keys := st.Keys()
	if len(keys) != 1 {
		t.Fatalf("store holds %d records, want 1", len(keys))
	}
	url := srv.URL + "/v1/store/" + keys[0].ID()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE %s: %d, want 405", url, resp.StatusCode)
	}
	got, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Errorf("GET after DELETE: %d, want the record still served", got.StatusCode)
	}
}

func TestStoreEndpointsWithoutStoreAre404(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	resp, err := http.Get(srv.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store without a store: %d, want 404", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "no plan store") {
		t.Errorf("missing-store error body: %s", body)
	}
}

// TestMetricsEndpoint: /metrics serves the Prometheus text form of the
// counters /v1/healthz serves as JSON, and moves with traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv, c, _ := newStoreServer(t)
	ctx := context.Background()
	if _, err := c.Search(ctx, service.SearchRequest{Model: "twotower-small", GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, service.SearchRequest{Model: "twotower-small", GPUs: 4}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE tapas_cache_hits_total counter",
		"tapas_cache_hits_total 1",
		"tapas_cache_misses_total 1",
		"# TYPE tapas_jobs_queue_capacity gauge",
		"# TYPE tapas_store_puts_total counter",
		"tapas_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestRequestBodyIsOneJSONValue: every POST endpoint decodes exactly one
// JSON value. Trailing whitespace is accepted; anything else after the
// value — a second object, stray bytes — is a 400, never a 200 that
// silently answers only the first object.
func TestRequestBodyIsOneJSONValue(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	const one = `{"model":"bert-large","gpus":4}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/search", one + " \n\t", http.StatusOK},
		{"/v1/search", one + ` {"model":"t5-1.4B","gpus":32}`, http.StatusBadRequest},
		{"/v1/search", one + `}`, http.StatusBadRequest},
		{"/v1/search", one + `x`, http.StatusBadRequest},
		{"/v1/search", `{"model":"bert-large","gpus":4,"extra":1}`, http.StatusBadRequest},
		{"/v1/search:batch", `{"requests":[` + one + `]} {}`, http.StatusBadRequest},
		{"/v1/jobs", one + ` ` + one, http.StatusBadRequest},
		{"/v1/tasks", `{} []`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: %d %s, want %d", tc.path, tc.body, resp.StatusCode, body, tc.want)
		}
	}
}
