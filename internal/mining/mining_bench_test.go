package mining

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"tapas/internal/ir"
	"tapas/internal/models"
)

// groupNamed builds a registered model and groups it into the GraphNode
// graph mining runs on.
func groupNamed(tb testing.TB, name string) *ir.GNGraph {
	tb.Helper()
	src, err := models.Build(name)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkMineLevels times the full Apriori sweep (level-1 hashing plus
// every level-k group expansion and merge) on t5-770M at several worker
// counts, and on t5-1.4B, the deepest registered graph (15 levels), at
// one, both on a reused graph and on a freshly grouped one:
//
//	go test -run xxx -bench BenchmarkMineLevels ./internal/mining
func BenchmarkMineLevels(b *testing.B) {
	mine := func(g *ir.GNGraph, workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			opt := DefaultOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				res := Mine(context.Background(), g, opt)
				if len(res.Frequent) == 0 {
					b.Fatal("no frequent subgraphs")
				}
			}
		}
	}
	g := groupNamed(b, "t5-770M")
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), mine(g, workers))
	}
	deep := groupNamed(b, "t5-1.4B")
	b.Run("model=t5-1.4B", func(b *testing.B) {
		b.Run("workers=1", mine(deep, 1))
		// A graph nothing has mined yet, as in a cold search: none of its
		// GraphNode.Signature strings is memoized. Grouping it is untimed.
		b.Run("fresh", func(b *testing.B) {
			b.ReportAllocs()
			opt := DefaultOptions()
			opt.Workers = 1
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := groupNamed(b, "t5-1.4B")
				b.StartTimer()
				if res := Mine(context.Background(), g, opt); len(res.Frequent) == 0 {
					b.Fatal("no frequent subgraphs")
				}
			}
		})
	})
}

// TestMineWorkerEquivalence is the mining-local determinism contract:
// the sharded level expansion merges per-group output in ascending
// canonical-hash order, so every worker count must produce exactly the
// same frequent patterns — same signatures, sizes, instances member for
// member and level count — as a serial run. Additions reference level-k
// instances that the pool's workers share, so t5-1.4B, the deepest graph,
// pins it over 15 levels. (The engine-level sweep in the root package
// proves the same through to PlanJSON bytes.)
func TestMineWorkerEquivalence(t *testing.T) {
	for _, name := range []string{"t5-200M", "moe-380M", "resnet-26M", "t5-1.4B"} {
		name := name
		t.Run(name, func(t *testing.T) {
			g := groupNamed(t, name)
			serialOpt := DefaultOptions()
			serialOpt.Workers = 1
			serial := Mine(context.Background(), g, serialOpt)
			for _, workers := range []int{2, 8} {
				opt := DefaultOptions()
				opt.Workers = workers
				res := Mine(context.Background(), g, opt)
				if res.Levels != serial.Levels {
					t.Errorf("workers=%d: levels %d != serial %d", workers, res.Levels, serial.Levels)
				}
				if len(res.Frequent) != len(serial.Frequent) {
					t.Fatalf("workers=%d: %d frequent patterns != serial %d", workers, len(res.Frequent), len(serial.Frequent))
				}
				for i, got := range res.Frequent {
					want := serial.Frequent[i]
					if got.Signature != want.Signature || got.Size != want.Size {
						t.Fatalf("workers=%d: pattern %d is (%q, %d), serial has (%q, %d)",
							workers, i, got.Signature, got.Size, want.Signature, want.Size)
					}
					if len(got.Instances) != len(want.Instances) {
						t.Fatalf("workers=%d: pattern %d support %d != serial %d",
							workers, i, len(got.Instances), len(want.Instances))
					}
					for j, in := range got.Instances {
						if !slices.EqualFunc(in, want.Instances[j], func(a, b *ir.GraphNode) bool { return a.ID == b.ID }) {
							t.Fatalf("workers=%d: pattern %d instance %d is %v, serial has %v", workers, i, j, in, want.Instances[j])
						}
					}
				}
			}
		})
	}
}

// TestMineLeaksNoGoroutines checks the level-expansion pool drains: the
// goroutine count settles back to its pre-mining level after parallel
// runs.
func TestMineLeaksNoGoroutines(t *testing.T) {
	g := groupNamed(t, "t5-200M")
	warm := DefaultOptions()
	warm.Workers = 1
	Mine(context.Background(), g, warm)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		opt := DefaultOptions()
		opt.Workers = 8
		Mine(context.Background(), g, opt)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after parallel mining", base, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
