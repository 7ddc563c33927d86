package tapas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tapas/internal/export"
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
		case "memo":
			// The memoized plan document and per-device graph are render
			// caches of Strategy (compared below), not result data.
		case "Strategy":
			if warm.Strategy.Describe() != cold.Strategy.Describe() {
				t.Errorf("restored plan %q != cold plan %q", warm.Strategy.Describe(), cold.Strategy.Describe())
			}
			if warm.Strategy.Cost != cold.Strategy.Cost || warm.Strategy.MemPerDev != cold.Strategy.MemPerDev {
				t.Errorf("restored cost %+v / memory %d != cold %+v / %d",
					warm.Strategy.Cost, warm.Strategy.MemPerDev, cold.Strategy.Cost, cold.Strategy.MemPerDev)
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

// planJSON renders a result's plan document, the bytes a daemon serves.
func planJSON(t *testing.T, res *Result) string {
	t.Helper()
	p, err := export.FromStrategy(res.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreHitsShareOneGroupedGraph: the store hits of one registered
// model build and group its graph once per engine — concurrent hits at
// four GPU counts all rehydrate against the one memoized grouped graph —
// and serve the cold plans byte for byte.
func TestStoreHitsShareOneGroupedGraph(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var specs []SearchSpec
	for _, gpus := range []int{4, 8, 16, 32} {
		specs = append(specs, SearchSpec{Model: "t5-100M", GPUs: gpus})
	}
	st1 := openStore(t, dir)
	cold, err := NewEngine(WithStore(st1)).SearchAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	st1.Close()

	eng := NewEngine(WithStore(openStore(t, dir)))
	warm, err := eng.SearchAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	eng.fpMu.Lock()
	m, n := eng.memo["t5-100M"], len(eng.memo)
	eng.fpMu.Unlock()
	if n != 1 || m == nil || m.gg == nil {
		t.Fatalf("memo holds %d models (t5-100M: %+v), want t5-100M with its grouped graph", n, m)
	}
	for i, res := range warm {
		if !res.StoreHit {
			t.Errorf("%d GPUs: not a store hit", specs[i].GPUs)
			continue
		}
		if res.Strategy.Graph != m.gg {
			t.Errorf("%d GPUs: rehydrated against a graph other than the memoized one", specs[i].GPUs)
		}
		if planJSON(t, res) != planJSON(t, cold[i]) {
			t.Errorf("%d GPUs: store-hit plan differs from the cold plan", specs[i].GPUs)
		}
	}
}

// TestStoreHitAllocationBudget holds a store hit to its allocation
// budget. A warm hit — the model's grouped graph memoized by an earlier
// hit — is read → check → rehydrate from the pattern names → price →
// count → simulate; it decodes no plan document, renders none, builds
// no per-device graph and copies no pattern menu. While it decoded the
// whole plan record, t5-100M@8 made 630 allocations per hit and
// t5-1.4B@8 11,841 (9.5 per grouped node); now they make 95 and 185
// (0.15 per grouped node), the weight maps of the validity and memory
// checks sized up front. A fresh engine's first hit also builds,
// groups and hashes the model, and builds one pattern menu per distinct
// node: t5-1.4B@8 makes about 35,200 allocations (28.3 per grouped
// node). It made 80,600 (64.7) while it built a menu per node, and
// 54,200 (43.5) while grouping kept its per-operator state in maps keyed
// by pointer and gave every node's lists their own allocations. Both
// t5-1.4B budgets are per grouped node, so a hit whose cost grows faster
// than the graph fails here.
func TestStoreHitAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name, model string
		fresh       bool // a fresh engine per hit: the model's first hit
		budget      func(nodes int) float64
		explain     string
	}{
		{"t5-100M", "t5-100M", false, func(int) float64 { return 150 }, "150"},
		{"t5-1.4B", "t5-1.4B", false, func(n int) float64 { return 0.25 * float64(n) }, "0.25 per grouped node"},
		{"t5-1.4B-first", "t5-1.4B", true, func(n int) float64 { return 30 * float64(n) }, "30 per grouped node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			st1 := openStore(t, dir)
			eng1 := NewEngine(WithStore(st1))
			for _, gpus := range []int{4, 8} {
				if _, err := eng1.Search(ctx, tc.model, gpus); err != nil {
					t.Fatal(err)
				}
			}
			st1.Close()

			// WithCache(0): every call below is a store hit, not a cache hit.
			st := openStore(t, dir)
			engine := func() *Engine { return NewEngine(WithStore(st), WithCache(0), WithWorkers(1)) }
			eng := engine()
			res, err := eng.Search(ctx, tc.model, 4)
			if err != nil || !res.StoreHit {
				t.Fatalf("warm-up at 4 GPUs: err=%v, want a store hit", err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if tc.fresh {
					eng = engine()
				}
				if res, err := eng.Search(ctx, tc.model, 8); err != nil || !res.StoreHit {
					t.Fatalf("8 GPUs: err=%v, want a store hit", err)
				}
			})
			nodes := len(res.Strategy.Graph.Nodes)
			t.Logf("%s@8 store hit: %.0f allocations, %d grouped nodes (%.2f per node)", tc.name, allocs, nodes, allocs/float64(nodes))
			if allocs > tc.budget(nodes) {
				t.Errorf("a store hit (%s@8) made %.0f allocations for %d grouped nodes, budget %s",
					tc.name, allocs, nodes, tc.explain)
			}
		})
	}
}

// TestStoreReadsIndentedRecords: a record written indented, as earlier
// builds wrote every record, is served exactly like the compact record
// written now, which is the smaller of the two.
func TestStoreReadsIndentedRecords(t *testing.T) {
	ctx := context.Background()
	compactDir, indentDir := t.TempDir(), t.TempDir()
	st := openStore(t, compactDir)
	cold, err := NewEngine(WithStore(st)).Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	keys := st.Keys()
	if len(keys) != 1 {
		t.Fatalf("store has %d records, want 1", len(keys))
	}
	name := keys[0].ID() + ".json"
	compact, err := os.ReadFile(filepath.Join(compactDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var rec store.Record
	if err := json.Unmarshal(compact, &rec); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(indented) {
		t.Errorf("compact record is %d bytes, indented %d: want it smaller", len(compact), len(indented))
	}
	if err := os.WriteFile(filepath.Join(indentDir, name), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{compactDir, indentDir} {
		res, err := NewEngine(WithStore(openStore(t, dir))).Search(ctx, "t5-100M", 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.StoreHit || planJSON(t, res) != planJSON(t, cold) {
			t.Errorf("%s: store hit %v, or its plan differs from the cold plan", filepath.Base(dir), res.StoreHit)
		}
	}
}

// TestStoreHitServesStoredBytes: a store hit's plan document is the
// record's stored bytes only while the record proves they are what
// rendering the re-priced plan would give. The test alters the stored
// document (a model name no render produces) and then one pinned fact
// at a time: with every fact intact the altered bytes are served, which
// shows the check can see the splice; with the cost, the memory or the
// names digest off by any amount the document is rendered again.
func TestStoreHitServesStoredBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir)
	cold, err := NewEngine(WithStore(st)).Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	want, err := cold.PlanDocument()
	if err != nil {
		t.Fatal(err)
	}
	k := st.Keys()[0]
	rec, ok := st.Lookup(k)
	if !ok || !bytes.Equal(rec.Doc, want) {
		t.Fatal("the stored document is not the cold search's plan document")
	}
	altered := bytes.Replace(rec.Doc, []byte(`"model": "t5-100M"`), []byte(`"model": "t5-100X"`), 1)
	for _, tc := range []struct {
		name   string
		change func(*store.Record)
		served []byte
	}{
		{"intact", func(*store.Record) {}, altered},
		{"cost", func(r *store.Record) { r.CostSeconds = math.Nextafter(r.CostSeconds, 1) }, want},
		{"memory", func(r *store.Record) { r.MemBytesPerDevice++ }, want},
		{"names", func(r *store.Record) { r.Names = strings.Repeat("0", len(r.Names)) }, want},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := *rec
			cp.Doc = altered
			tc.change(&cp)
			if err := st.Put(k, &cp); err != nil {
				t.Fatal(err)
			}
			res, err := NewEngine(WithStore(openStore(t, dir))).Search(ctx, "t5-100M", 8)
			if err != nil || !res.StoreHit {
				t.Fatalf("err=%v, want a store hit", err)
			}
			got, err := res.PlanDocument()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.served) {
				t.Errorf("served %d bytes (model %q), want %d", len(got), got[:60], len(tc.served))
			}
		})
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

// TestSearchKeyIsStable pins the content address of a stored search.
// Every stored plan is filed under this ID, so a change to how a search
// configuration is keyed silently turns every existing corpus cold; it
// must be deliberate, and this test is where it shows.
func TestSearchKeyIsStable(t *testing.T) {
	g, err := BuildModel("t5-100M")
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	e := NewEngine()
	id := func(opt Options) string {
		return storeKey(e.searchKey(fp, 8, e.base.overlay(opt))).ID()
	}
	for _, c := range []struct {
		name string
		opt  Options
		want string
	}{
		{"default", Options{}, "6319b50c0fa35900dd3f6060e11e7e1aaf3fca38f66e229ee3720885d79ec335"},
		{"exhaustive", Options{Exhaustive: true}, "a5b9e4468815171ea0b2af0bba5426df2b661bd4e845b7ceb9786ba1a2745738"},
		{"time budget", Options{TimeBudget: 50 * time.Millisecond}, "ac841439b807955c09d3ffc347391575ff053002202477dc762cf05c5031c9d0"},
	} {
		if got := id(c.opt); got != c.want {
			t.Errorf("%s: t5-100M@8 store key %s, want %s", c.name, got, c.want)
		}
	}
	if a, b := id(Options{Workers: 1}), id(Options{Workers: 8}); a != b {
		t.Errorf("worker count changed the store key: %s (1 worker) vs %s (8)", a, b)
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
	rec.Doc = nil // Put renders a changed Plan only without the stored document
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
