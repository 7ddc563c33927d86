package tapas

import (
	"context"
	"sync"
	"testing"

	"tapas/internal/reconstruct"
)

// TestDeviceCountsMatchParallelGraph: for every registered model at 4,
// 8, 16 and 32 GPUs, the device counts a cold search and a store hit
// compute from the strategy are the sizes of the graph Parallel builds.
func TestDeviceCountsMatchParallelGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("88-key sweep")
	}
	ctx := context.Background()
	var specs []SearchSpec
	for _, m := range Models() {
		for _, gpus := range []int{4, 8, 16, 32} {
			specs = append(specs, SearchSpec{Model: m, GPUs: gpus})
		}
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	cold, err := NewEngine(WithStore(st), WithCache(0)).SearchAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	warm, err := NewEngine(WithStore(openStore(t, dir)), WithCache(0)).SearchAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, spec SearchSpec, res *Result) {
		t.Helper()
		pg, err := res.Parallel()
		if err != nil {
			t.Fatalf("%s %s@%d: %v", what, spec.Model, spec.GPUs, err)
		}
		if res.DeviceNodes != len(pg.PerDevice.Nodes) || res.DeviceCollectives != len(pg.Collectives) {
			t.Errorf("%s %s@%d: counts %d nodes / %d collectives, graph has %d / %d", what, spec.Model, spec.GPUs,
				res.DeviceNodes, res.DeviceCollectives, len(pg.PerDevice.Nodes), len(pg.Collectives))
		}
	}
	for i, spec := range specs {
		if !warm[i].StoreHit {
			t.Fatalf("%s@%d: not a store hit", spec.Model, spec.GPUs)
		}
		check("cold", spec, cold[i])
		check("store hit", spec, warm[i])
	}
}

// TestSearchesLeaveParallelUnbuilt: neither a cold search nor a store
// hit builds the per-device graph. Each publishes a cached Result whose
// memo holds no graph until a caller asks for one.
func TestSearchesLeaveParallelUnbuilt(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir)
	cold, err := NewEngine(WithStore(st)).Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	eng := NewEngine(WithStore(openStore(t, dir)))
	warm, err := eng.Search(ctx, "t5-100M", 8)
	if err != nil || !warm.StoreHit {
		t.Fatalf("restart search: err=%v, want a store hit", err)
	}
	for what, res := range map[string]*Result{"cold search": cold, "store hit": warm} {
		if res.memo == nil {
			t.Fatalf("%s: no memo installed", what)
		}
		if res.memo.graph != nil || res.memo.graphErr != nil {
			t.Errorf("%s built the per-device graph", what)
		}
	}

	pg, err := warm.Parallel()
	if err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Search(ctx, "t5-100M", 8)
	if err != nil || !hit.CacheHit {
		t.Fatalf("repeat search: err=%v, want a cache hit", err)
	}
	if again, _ := hit.Parallel(); again != pg {
		t.Error("a cache hit rebuilt the graph its entry already holds")
	}
}

// TestParallelBuiltOncePerCacheEntry: concurrent Parallel calls on one
// cached Result, and on hits of the same cache entry, all get one graph;
// an uncached Result builds a fresh one on every call.
func TestParallelBuiltOncePerCacheEntry(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	res, err := eng.Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Search(ctx, "t5-100M", 8)
	if err != nil || !hit.CacheHit {
		t.Fatalf("repeat search: err=%v, want a cache hit", err)
	}
	const callers = 8
	graphs := make([]*reconstruct.ParallelGraph, callers)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := res
			if i%2 == 1 {
				r = hit
			}
			pg, err := r.Parallel()
			if err != nil {
				t.Error(err)
			}
			graphs[i] = pg
		}()
	}
	wg.Wait()
	for i, pg := range graphs {
		if pg == nil || pg != graphs[0] {
			t.Fatalf("caller %d got graph %p, caller 0 %p: want one shared graph", i, pg, graphs[0])
		}
	}

	uncached, err := NewEngine(WithCache(0)).Search(ctx, "t5-100M", 8)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := uncached.Parallel()
	b, errB := uncached.Parallel()
	if errA != nil || errB != nil || a == b {
		t.Errorf("an uncached Result shared its graph across calls (%v, %v)", errA, errB)
	}
}
