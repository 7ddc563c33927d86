package strategy

import (
	"context"
	"fmt"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/mining"
)

// BenchmarkEnumerateWide is the enumeration kernel under the cold-wide
// benchmark workload: for each of its five keys (shallow graphs whose
// classes carry large pattern menus), one serial EnumerateInstance of the
// largest class, seeds and ranking included. Run it with -benchmem:
// TestEnumerateAllocationBudget holds the allocation count of the same
// call on t5-100M.
func BenchmarkEnumerateWide(b *testing.B) {
	keys := []struct {
		model string
		w     int
	}{{"t5-100M", 8}, {"moe-380M", 8}, {"gpt-125M", 8}, {"vit-base", 8}, {"bert-base", 16}}
	for _, k := range keys {
		g := groupModel(b, k.model)
		var largest *mining.Class
		for _, c := range mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions())) {
			if largest == nil || c.Size() > largest.Size() {
				largest = c
			}
		}
		model := cost.Default(cluster.V100GPUs(k.w))
		opt := DefaultEnumOptions(k.w)
		opt.Workers = 1
		b.Run(fmt.Sprintf("model=%s/W=%d", k.model, k.w), func(b *testing.B) {
			b.ReportAllocs()
			var stats EnumStats
			for i := 0; i < b.N; i++ {
				_, stats = EnumerateInstance(context.Background(), g, largest.Representative(), model, opt)
			}
			b.ReportMetric(float64(stats.Examined), "examined/op")
		})
	}
}
