package tapas

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tapas/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreWarmRestart is the round trip the store exists for: a cold
// search persisted by one engine is served by a fresh engine (fresh
// process, simulated by a fresh store handle over the same directory)
// without re-running the pipeline, and the response summary is
// identical except the hit markers.
func TestStoreWarmRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1 := openStore(t, dir)
	eng1 := NewEngine(WithStore(st1))
	cold, err := eng1.Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.StoreHit {
		t.Fatalf("first search must be cold: cache=%v store=%v", cold.CacheHit, cold.StoreHit)
	}
	st1.Flush()
	if st1.Len() != 1 {
		t.Fatalf("cold search persisted %d records, want 1", st1.Len())
	}
	st1.Close()

	// "Restart": fresh store handle, fresh engine, empty memory cache.
	st2 := openStore(t, dir)
	eng2 := NewEngine(WithStore(st2))
	warm, err := eng2.Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.StoreHit {
		t.Fatal("post-restart search must be served from the store")
	}
	if warm.CacheHit {
		t.Error("store hit mislabeled as a memory-cache hit")
	}
	if stats, ok := eng2.StoreStats(); !ok || stats.Hits != 1 {
		t.Errorf("store stats after warm hit: %+v (attached=%v)", stats, ok)
	}

	// The restored result is the cold result, bit for bit, modulo the
	// hit markers: same plan, same cost, same simulated report, and the
	// timing block restored from the record. Every field of Result is
	// compared, so one added to Result but not to the record fails here.
	want, got := cold.Summary(), warm.Summary()
	got.StoreHit = want.StoreHit
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored summary diverged:\ncold: %+v\nwarm: %+v", want, got)
	}
	cv, wv := reflect.ValueOf(*cold), reflect.ValueOf(*warm)
	for i := 0; i < cv.NumField(); i++ {
		switch name := cv.Type().Field(i).Name; name {
		case "CacheHit", "StoreHit":
		case "Strategy":
			if warm.Strategy.Describe() != cold.Strategy.Describe() {
				t.Errorf("restored plan %q != cold plan %q", warm.Strategy.Describe(), cold.Strategy.Describe())
			}
			if warm.Strategy.Cost != cold.Strategy.Cost || warm.Strategy.MemPerDev != cold.Strategy.MemPerDev {
				t.Errorf("restored cost %+v / memory %d != cold %+v / %d",
					warm.Strategy.Cost, warm.Strategy.MemPerDev, cold.Strategy.Cost, cold.Strategy.MemPerDev)
			}
		case "Parallel":
			if warm.Parallel == nil || len(warm.Parallel.PerDevice.Nodes) != len(cold.Parallel.PerDevice.Nodes) {
				t.Error("restored result missing the reconstructed per-device graph")
			}
		default:
			if c, w := cv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(c, w) {
				t.Errorf("restored %s = %v, cold %v", name, w, c)
			}
		}
	}

	// Precedence: the second warm search is answered by the memory
	// cache, not the store — the store hit count must not move.
	again, err := eng2.Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeat search must come from the memory cache")
	}
	if !again.StoreHit {
		t.Error("cached copy of a store-restored result must keep its StoreHit marker")
	}
	if stats, _ := eng2.StoreStats(); stats.Hits != 1 {
		t.Errorf("memory-cache hit consulted the store: %+v", stats)
	}
}

// TestStoreKeyedByOptions: a store written under one option set must
// not serve a search under another.
func TestStoreKeyedByOptions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1 := openStore(t, dir)
	eng1 := NewEngine(WithStore(st1))
	if _, err := eng1.Search(ctx, "twotower-small", 4); err != nil {
		t.Fatal(err)
	}
	st1.Flush()
	st1.Close()

	st2 := openStore(t, dir)
	eng2 := NewEngine(WithStore(st2), WithExhaustive(true))
	res, err := eng2.Search(ctx, "twotower-small", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreHit {
		t.Error("exhaustive search served a folded-search store record")
	}
	// The different GPU count misses too.
	res, err = eng2.Search(ctx, "twotower-small", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreHit {
		t.Error("different GPU count served the stored plan")
	}
}

// TestStoreRejectsUnrehydratableRecord: a record whose plan no longer
// matches the graph is dropped and the search falls through cold —
// never an error, never a panic.
func TestStoreRejectsUnrehydratableRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	st1 := openStore(t, dir)
	eng1 := NewEngine(WithStore(st1))
	if _, err := eng1.Search(ctx, "twotower-small", 4); err != nil {
		t.Fatal(err)
	}
	st1.Flush()

	// Mutilate the stored plan in place: keep the key valid but drop
	// all but one assignment, so rehydration must fail.
	keys := st1.Keys()
	if len(keys) != 1 {
		t.Fatalf("store has %d records, want 1", len(keys))
	}
	rec, ok := st1.Get(keys[0])
	if !ok {
		t.Fatal("record vanished")
	}
	rec.Plan.Assignments = rec.Plan.Assignments[:1]
	if err := st1.Put(keys[0], rec); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st3 := openStore(t, dir)
	eng3 := NewEngine(WithStore(st3))
	res, err := eng3.Search(ctx, "twotower-small", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreHit {
		t.Error("mutilated record served as a store hit")
	}
	if stats, _ := eng3.StoreStats(); stats.Corrupt == 0 {
		t.Errorf("dropped record not counted: %+v", stats)
	}
}

// TestSearchSpecUnknownModelTypedError pins the error contract the
// daemon's 404 mapping depends on: every unknown-model path yields an
// error matching ErrUnknownModel.
func TestSearchSpecUnknownModelTypedError(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()

	_, err := eng.SearchSpec(ctx, SearchSpec{Model: "no-such-model", GPUs: 8})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("SearchSpec: got %v, want ErrUnknownModel", err)
	}
	_, err = eng.Search(ctx, "no-such-model", 8)
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Search: got %v, want ErrUnknownModel", err)
	}
	if _, err := BuildModel("no-such-model"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("BuildModel: got %v, want ErrUnknownModel", err)
	}

	// Through a batch: the joined error still matches, and the typed
	// SpecError carries the position.
	_, err = eng.SearchAll(ctx, []SearchSpec{
		{Model: "twotower-small", GPUs: 4},
		{Model: "no-such-model", GPUs: 8},
	})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("SearchAll: joined error does not match ErrUnknownModel: %v", err)
	}
	var se *SpecError
	if !errors.As(err, &se) || se.Index != 1 || se.Model != "no-such-model" {
		t.Errorf("SearchAll: no positional SpecError in %v", err)
	}
}
