package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"tapas"
	"tapas/store"
)

// postSearch sends one POST /v1/search through h and returns the body,
// failing the test on any status but 200.
func postSearch(t testing.TB, h http.Handler, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/search %s: %d %s", body, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// structBody is the byte oracle of the spliced search answer: the body
// writeJSON writes for NewSearchResponse(res).
func structBody(t testing.TB, res *tapas.Result) []byte {
	t.Helper()
	resp, err := NewSearchResponse(res)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// cachedResult returns a private copy of the engine's cached Result for
// req, hit markers set as given. The copy shares the cached plan memo.
func cachedResult(t testing.TB, svc *Service, req SearchRequest, cacheHit, storeHit bool) *tapas.Result {
	t.Helper()
	res, err := svc.Engine().SearchSpec(context.Background(), specForRequest(req, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatalf("%s@%d: the oracle's search was not a cache hit", req.Model, req.GPUs)
	}
	res.CacheHit, res.StoreHit = cacheHit, storeHit
	return res
}

// TestSearchBodiesMatchStructPath: POST /v1/search splices each
// result's memoized plan document into the response, and every body —
// cold, memory-cache hit, store hit — is byte for byte what encoding
// NewSearchResponse of the same result gives, for all 88 keys (every
// registered model at 4, 8, 16 and 32 GPUs). At the golden GPU counts
// the memoized document is the golden fixture.
func TestSearchBodiesMatchStructPath(t *testing.T) {
	if testing.Short() {
		t.Skip("88 cold searches")
	}
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One cache entry: by the store pass, every key has been evicted.
	svc := mustNew(t, Config{EngineOptions: []tapas.Option{tapas.WithStore(st), tapas.WithCache(1)}})
	defer svc.Shutdown(context.Background())
	h := NewHandler(svc)

	var reqs []SearchRequest
	for _, model := range tapas.Models() {
		for _, gpus := range []int{4, 8, 16, 32} {
			reqs = append(reqs, SearchRequest{Model: model, GPUs: gpus})
		}
	}
	if len(reqs) != 88 {
		t.Errorf("%d keys, want 88 (22 models × 4 GPU counts)", len(reqs))
	}
	check := func(what string, req SearchRequest, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s body of %s@%d differs from the struct path:\n%s", what, req.Model, req.GPUs, firstDiff(want, got))
		}
	}
	for _, req := range reqs {
		body := mustJSON(t, req)
		check("cold", req, postSearch(t, h, body), structBody(t, cachedResult(t, svc, req, false, false)))
		check("cache-hit", req, postSearch(t, h, body), structBody(t, cachedResult(t, svc, req, true, false)))
		if req.GPUs > goldenGPUCounts[len(goldenGPUCounts)-1] {
			continue
		}
		doc, err := cachedResult(t, svc, req, true, false).PlanDocument()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := cachedResult(t, svc, req, true, false).PlanDocument(); &again[0] != &doc[0] {
			t.Fatalf("two hits on %s@%d rendered the plan twice", req.Model, req.GPUs)
		}
		want, err := os.ReadFile(goldenPath(req.Model, req.GPUs))
		if err != nil {
			t.Fatal(err)
		}
		if got := append(append([]byte{}, doc...), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("memoized plan of %s@%d differs from its golden fixture:\n%s", req.Model, req.GPUs, firstDiff(want, got))
		}
	}
	st.Flush()
	for _, req := range reqs {
		check("store-hit", req, postSearch(t, h, mustJSON(t, req)), structBody(t, cachedResult(t, svc, req, false, true)))
	}
}

// TestSearchHitSameGraphOtherName: the cache is keyed by structure, so
// an inline spec structurally identical to one searched before is a hit
// that carries the first graph's plan (its plan.model and node names)
// under the caller's top-level model name — on the spliced path exactly
// as on the struct path.
func TestSearchHitSameGraphOtherName(t *testing.T) {
	svc := newTestService(t)
	h := NewHandler(svc)
	first := SearchRequest{Spec: tinySpec, GPUs: 4}
	second := SearchRequest{Spec: strings.Replace(tinySpec, "model tiny-mlp", "model tiny-renamed", 1), GPUs: 4}
	postSearch(t, h, mustJSON(t, first))
	got := postSearch(t, h, mustJSON(t, second))

	resp, err := svc.Search(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || resp.Model != "tiny-renamed" || resp.Plan.Model != "tiny-mlp" {
		t.Fatalf("struct path: cache_hit=%v model=%q plan.model=%q, want a hit answering tiny-renamed with tiny-mlp's plan",
			resp.CacheHit, resp.Model, resp.Plan.Model)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("renamed-spec hit differs from the struct path:\n%s", firstDiff(want, got))
	}
}

// TestSearchHitConcurrentBodies: eight simultaneous requests for one
// cold key run one search (the rest join it or hit its cache entry) and
// render its plan once between them; every hit body, in that burst and
// in a second one, is the same bytes, and the one cold body differs
// only in its cache_hit marker.
func TestSearchHitConcurrentBodies(t *testing.T) {
	svc := newTestService(t)
	h := NewHandler(svc)
	body := mustJSON(t, SearchRequest{Model: "t5-100M", GPUs: 8})
	var cold, hits [][]byte
	for round := 0; round < 2; round++ {
		bodies := make([][]byte, 8)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
				bodies[i] = rec.Body.Bytes()
			}()
		}
		wg.Wait()
		for _, b := range bodies {
			if bytes.Contains(b, []byte(`"cache_hit": false`)) {
				cold = append(cold, b)
			} else {
				hits = append(hits, b)
			}
		}
	}
	if len(cold) != 1 || len(hits) != 15 {
		t.Fatalf("%d cold and %d hit bodies, want 1 and 15", len(cold), len(hits))
	}
	for i, b := range hits {
		if !bytes.Equal(b, hits[0]) {
			t.Fatalf("hit body %d differs from hit body 0:\n%s", i, firstDiff(hits[0], b))
		}
	}
	if want := bytes.Replace(hits[0], []byte(`"cache_hit": true`), []byte(`"cache_hit": false`), 1); !bytes.Equal(cold[0], want) {
		t.Fatalf("cold body differs from the hits beyond cache_hit:\n%s", firstDiff(want, cold[0]))
	}
}

// TestSearchHitAllocationBudget holds one HTTP cache hit of the largest
// plan (t5-1.4B at 32 GPUs, a 545 KB body) through NewHandler under 500
// allocations. It measured 106 (BenchmarkSearchHitHTTP); rebuilding and
// re-encoding the plan on every hit, as the struct path does, made 7,732.
func TestSearchHitAllocationBudget(t *testing.T) {
	svc := newTestService(t)
	h := NewHandler(svc)
	body := mustJSON(t, SearchRequest{Model: "t5-1.4B", GPUs: 32})
	postSearch(t, h, body)
	allocs := testing.AllocsPerRun(5, func() { postSearch(t, h, body) })
	if allocs > 500 {
		t.Errorf("an HTTP cache hit (t5-1.4B@32) made %.0f allocations, budget 500", allocs)
	}
}

// BenchmarkSearchHitHTTP times one POST /v1/search cache hit through
// NewHandler, in-process (no socket), for a mid-size and the largest
// plan.
func BenchmarkSearchHitHTTP(b *testing.B) {
	svc, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	h := NewHandler(svc)
	for _, req := range []SearchRequest{{Model: "bert-large", GPUs: 8}, {Model: "t5-1.4B", GPUs: 32}} {
		body := mustJSON(b, req)
		b.Run(fmt.Sprintf("%s@%d", req.Model, req.GPUs), func(b *testing.B) {
			postSearch(b, h, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postSearch(b, h, body)
			}
		})
	}
}
