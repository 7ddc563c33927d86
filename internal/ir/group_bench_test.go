package ir

import (
	"testing"

	"tapas/internal/models"
)

// BenchmarkGroup times grouping t5-1.4B, the deepest registered graph,
// into GraphNodes; building the operator graph is untimed:
//
//	go test -run xxx -bench BenchmarkGroup -benchmem ./internal/ir
func BenchmarkGroup(b *testing.B) {
	src, err := models.Build("t5-1.4B")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Group(src); err != nil {
			b.Fatal(err)
		}
	}
}
