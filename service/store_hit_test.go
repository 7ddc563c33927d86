package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tapas"
	"tapas/store"
)

// storeService is a Service over the plan store in dir, with a memory
// cache of one entry, so a second key evicts the first.
func storeService(t *testing.T, dir string) (*Service, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc := mustNew(t, Config{EngineOptions: []tapas.Option{tapas.WithStore(st), tapas.WithCache(1)}})
	t.Cleanup(func() {
		_ = svc.Shutdown(context.Background())
		st.Close()
	})
	return svc, st
}

// searchBody is the struct path's body for req: what writeJSON writes
// for the service's own answer, now a memory-cache hit, with the hit
// markers set as given.
func searchBody(t *testing.T, svc *Service, req SearchRequest, cacheHit, storeHit bool) []byte {
	t.Helper()
	resp, err := svc.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("the oracle's search was not a cache hit")
	}
	resp.CacheHit, resp.StoreHit = cacheHit, storeHit
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// recordPath is where the filesystem backend in dir keeps the one
// record of the store st.
func recordPath(t *testing.T, st *store.Store, dir string) string {
	t.Helper()
	keys := st.Keys()
	if len(keys) != 1 {
		t.Fatalf("store holds %d records, want 1", len(keys))
	}
	return filepath.Join(dir, keys[0].ID()+".json")
}

// TestStoreServesParentRecords: version 1 records, byte for byte as an
// earlier build wrote them (an inline spec and a registered model),
// are still store hits, and their bodies are byte for byte what that
// build served for them, and what the struct path renders.
func TestStoreServesParentRecords(t *testing.T) {
	for name, req := range map[string]SearchRequest{
		"tiny":       {Spec: tinySpec, GPUs: 4},
		"resnet-26M": {Model: "resnet-26M", GPUs: 4},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "storev1", name+".record.json"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "storev1", name+".hit.json"))
			if err != nil {
				t.Fatal(err)
			}
			var rec store.Record
			if err := json.Unmarshal(data, &rec); err != nil || rec.SchemaVersion != 1 {
				t.Fatalf("pinned record: schema %d, %v", rec.SchemaVersion, err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, rec.Key.ID()+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			svc, _ := storeService(t, dir)
			got := postSearch(t, NewHandler(svc), mustJSON(t, req))
			if !bytes.Equal(got, want) {
				t.Fatalf("version 1 store hit differs from the body served before:\n%s", firstDiff(want, got))
			}
			if oracle := searchBody(t, svc, req, false, true); !bytes.Equal(got, oracle) {
				t.Fatalf("version 1 store hit differs from the struct path:\n%s", firstDiff(oracle, got))
			}
		})
	}
}

// TestCorruptStoreRecordFallsThroughCold: a version 2 record cut short,
// or with one bit of its plan document flipped, is dropped as corrupt
// on its first read; the request is answered by a cold search whose
// body is the struct path's, and the search persists a whole record
// again.
func TestCorruptStoreRecordFallsThroughCold(t *testing.T) {
	req := SearchRequest{Model: "t5-100M", GPUs: 8}
	dir := t.TempDir()
	svc, st := storeService(t, dir)
	postSearch(t, NewHandler(svc), mustJSON(t, req))
	st.Flush()
	path := recordPath(t, st, dir)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-len(flipped)/3] ^= 0x04 // inside the plan document
	for name, data := range map[string][]byte{
		"truncated":   whole[:len(whole)-100],
		"one byte":    whole[:len(whole)-1],
		"bit-flipped": flipped,
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			svc, st := storeService(t, dir)
			got := postSearch(t, NewHandler(svc), mustJSON(t, req))
			if !bytes.Contains(got, []byte(`"store_hit": false`)) {
				t.Fatal("a corrupt record was served as a store hit")
			}
			if stats := st.Stats(); stats.Corrupt != 1 || stats.Hits != 0 {
				t.Errorf("store stats %+v, want one corrupt record and no hit", stats)
			}
			if want := searchBody(t, svc, req, false, false); !bytes.Equal(got, want) {
				t.Fatalf("cold body after a corrupt record differs from the struct path:\n%s", firstDiff(want, got))
			}
			st.Flush()
			if rec, ok := st.Lookup(st.Keys()[0]); !ok || rec.Doc == nil {
				t.Error("the cold search did not persist a whole record again")
			}
		})
	}
}

// TestStoreHitRenamedSpec: the store key pins a graph's structure, not
// its names, so an inline spec that renames a stored plan's model and
// operators is a store hit — and, as from a cold search, its plan
// carries its own names: the stored document, rendered from the other
// names, is not served.
func TestStoreHitRenamedSpec(t *testing.T) {
	dir := t.TempDir()
	svc, st := storeService(t, dir)
	postSearch(t, NewHandler(svc), mustJSON(t, SearchRequest{Spec: tinySpec, GPUs: 4}))
	st.Flush()

	renamed := strings.NewReplacer("tiny-mlp", "tiny-renamed", "fc1", "up", "fc2", "down").Replace(tinySpec)
	req := SearchRequest{Spec: renamed, GPUs: 4}
	svc2, _ := storeService(t, dir)
	got := postSearch(t, NewHandler(svc2), mustJSON(t, req))
	var resp SearchResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.StoreHit || resp.Plan.Model != "tiny-renamed" || !strings.Contains(string(got), "Dense(up_") || strings.Contains(string(got), "fc1") {
		t.Fatalf("store hit %v, plan.model %q: want a store hit carrying the renamed spec's names", resp.StoreHit, resp.Plan.Model)
	}
	if want := searchBody(t, svc2, req, false, true); !bytes.Equal(got, want) {
		t.Fatalf("renamed-spec store hit differs from the struct path:\n%s", firstDiff(want, got))
	}
}
