package tapas

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEngineCacheHitOnRepeatSearch is the headline caching contract: a
// repeated search for the same (graph fingerprint, cluster, options) key
// is served from the LRU cache, marked CacheHit, with the same plan, and
// at least 10x faster than the cold call.
func TestEngineCacheHitOnRepeatSearch(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()

	coldStart := time.Now()
	cold, err := eng.Search(ctx, "t5-200M", 8)
	if err != nil {
		t.Fatal(err)
	}
	coldTime := time.Since(coldStart)
	if cold.CacheHit {
		t.Fatal("first search must not be a cache hit")
	}

	warmStart := time.Now()
	warm, err := eng.Search(ctx, "t5-200M", 8)
	if err != nil {
		t.Fatal(err)
	}
	warmTime := time.Since(warmStart)
	if !warm.CacheHit {
		t.Fatal("repeat search must be a cache hit")
	}
	if got, want := warm.Strategy.Describe(), cold.Strategy.Describe(); got != want {
		t.Errorf("cached plan %q != cold plan %q", got, want)
	}
	if warm.Strategy != cold.Strategy {
		t.Error("cache hit should share the Strategy with the cold result")
	}
	if warmTime > coldTime/10 {
		t.Errorf("cache hit took %v, want ≥10x faster than the %v cold search", warmTime, coldTime)
	}

	// A different GPU count is a different key.
	other, err := eng.Search(ctx, "t5-200M", 4)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Error("different GPU count must miss the cache")
	}
}

// TestEngineCacheDisabled: WithCache(0) turns caching off entirely.
func TestEngineCacheDisabled(t *testing.T) {
	eng := NewEngine(WithCache(0))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, err := eng.Search(ctx, "t5-100M", 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatalf("search %d: cache hit with caching disabled", i)
		}
	}
}

// TestEngineCacheEviction pins the least-recently-USED eviction order:
// touching an entry protects it, the coldest entry goes first.
func TestEngineCacheEviction(t *testing.T) {
	eng := NewEngine(WithCache(2))
	ctx := context.Background()
	search := func(model string) *Result {
		t.Helper()
		res, err := eng.Search(ctx, model, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	search("t5-100M")    // cache: [t5]
	search("resnet-26M") // cache: [resnet, t5]
	if !search("t5-100M").CacheHit {
		t.Fatal("t5-100M should still be cached")
	}
	// t5 was just used, so resnet is now least-recently-used and must be
	// the entry evicted by a third key.
	search("moe-380M") // cache: [moe, t5]
	if !search("t5-100M").CacheHit {
		t.Error("t5-100M was recently used and must survive the eviction")
	}
	if search("resnet-26M").CacheHit {
		t.Error("resnet-26M was least recently used and must have been evicted")
	}
}

// TestEngineConcurrentSearches hammers one Engine from many goroutines on
// the same key — the serving shape — so the race detector can see any
// unsynchronized write to a published (cached) Result, and asserts the
// in-flight deduplication: a burst of identical cold requests runs the
// pipeline exactly once. Each caller has its own observer, and only the
// one that led the pipeline run sees it start.
func TestEngineConcurrentSearches(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	hits := make([]bool, 8)
	coldRuns := make([]int, 8) // per caller; each observer is serialized
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.SearchSpec(ctx, SearchSpec{Model: "t5-100M", GPUs: 4, Progress: func(ev ProgressEvent) {
				if ev.Phase == PhaseGroup && ev.Kind == PhaseEnter {
					coldRuns[i]++
				}
			}})
			if err == nil && res.ModelName != "t5-100M" {
				err = errors.New("wrong ModelName " + res.ModelName)
			}
			if err == nil {
				hits[i] = res.CacheHit
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	n := 0
	for _, c := range coldRuns {
		n += c
	}
	if n != 1 {
		t.Errorf("%d cold pipeline runs for 8 identical concurrent searches, want 1 (singleflight)", n)
	}
	cold := 0
	for _, h := range hits {
		if !h {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("%d results claim to be the cold computation, want exactly 1", cold)
	}
}

// TestEngineCancellationMidSearch is the cancellation contract: a context
// cancelled mid-enumeration aborts the search promptly with an error
// wrapping context.Canceled, and the worker pool's goroutines drain.
func TestEngineCancellationMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Trigger the cancel from the first per-class progress tick — by
	// construction that lands while the remaining classes are still
	// enumerating on the worker pool.
	var cancelled time.Time
	res, err := NewEngine().SearchSpec(ctx, SearchSpec{Model: "t5-770M", GPUs: 8, Progress: func(ev ProgressEvent) {
		if ev.Kind == PhaseProgress && cancelled.IsZero() {
			cancelled = time.Now()
			cancel()
		}
	}})
	returned := time.Now()
	if err == nil {
		t.Fatalf("cancelled search returned a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if cancelled.IsZero() {
		t.Fatal("progress stream never fired — cancel did not happen mid-search")
	}
	if d := returned.Sub(cancelled); d > 5*time.Second {
		t.Errorf("search took %v to honor cancellation", d)
	}

	// The pool goroutines must drain; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// TestEngineProgressStream checks the event stream's shape on a folded
// and an exhaustive cold search: phases enter and exit in pipeline order
// (an exhaustive search has no mine phase) and the per-class ticks count
// monotonically up to the class total.
func TestEngineProgressStream(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model string
		gpus  int
		opts  *Options
		want  []string
	}{
		{"folded", "t5-100M", 8, nil, []string{
			"enter:group", "exit:group",
			"enter:mine", "exit:mine",
			"enter:search", "exit:search",
			"enter:reconstruct", "exit:reconstruct",
			"enter:simulate", "exit:simulate",
		}},
		{"exhaustive", "twotower-small", 4, &Options{Exhaustive: true}, []string{
			"enter:group", "exit:group",
			"enter:search", "exit:search",
			"enter:reconstruct", "exit:reconstruct",
			"enter:simulate", "exit:simulate",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []ProgressEvent
			eng := NewEngine()
			spec := SearchSpec{Model: tc.model, GPUs: tc.gpus, Options: tc.opts, Progress: func(ev ProgressEvent) {
				events = append(events, ev) // serialized by the engine
			}}
			res, err := eng.SearchSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}

			var order []string
			lastDone := 0
			ticks := 0
			for _, ev := range events {
				if ev.Model != tc.model || ev.GPUs != tc.gpus {
					t.Fatalf("event carries wrong identity: %+v", ev)
				}
				switch ev.Kind {
				case PhaseEnter, PhaseExit:
					order = append(order, ev.Kind.String()+":"+string(ev.Phase))
				case PhaseProgress:
					ticks++
					if ev.ClassesDone <= lastDone {
						t.Errorf("classes-done not monotonic: %d after %d", ev.ClassesDone, lastDone)
					}
					lastDone = ev.ClassesDone
					if ev.ClassesTotal != res.Classes {
						t.Errorf("tick total %d, want %d", ev.ClassesTotal, res.Classes)
					}
				}
			}
			if got := strings.Join(order, " "); got != strings.Join(tc.want, " ") {
				t.Errorf("phase order:\n got %s\nwant %s", got, strings.Join(tc.want, " "))
			}
			if ticks != res.Classes {
				t.Errorf("%d progress ticks for %d classes", ticks, res.Classes)
			}

			// Cache hits answer without re-running the pipeline, hence silently.
			events = nil
			if _, err := eng.SearchSpec(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			if len(events) != 0 {
				t.Errorf("cache hit emitted %d progress events, want none", len(events))
			}
		})
	}
}

// TestEveryBaselineOnEveryModel is the cross-product table: every
// comparison planner must produce a non-nil strategy with a finite
// simulated iteration time on every registered model at 8 GPUs. Search
// baselines (alpa) are time-capped so the sweep stays fast; -short trims
// the model zoo to one representative per architecture family.
func TestEveryBaselineOnEveryModel(t *testing.T) {
	mods := Models()
	if testing.Short() {
		mods = []string{"t5-100M", "resnet-26M", "moe-380M", "gpt-125M"}
	}
	// The alpa cap keeps its O(V²)-segment pass bounded on the big
	// models; it returns its best-so-far plan on timeout.
	eng := NewEngine(WithTimeBudget(2 * time.Second))
	ctx := context.Background()

	for _, model := range mods {
		for _, baseline := range Baselines() {
			model, baseline := model, baseline
			t.Run(model+"/"+baseline, func(t *testing.T) {
				res, err := eng.Baseline(ctx, baseline, model, 8)
				if err != nil {
					t.Fatalf("baseline %s on %s: %v", baseline, model, err)
				}
				if res.Strategy == nil {
					t.Fatal("nil strategy")
				}
				it := res.Report.IterationTime
				if it <= 0 || math.IsNaN(it) || math.IsInf(it, 0) {
					t.Errorf("iteration time %v not positive and finite", it)
				}
			})
		}
	}
}
