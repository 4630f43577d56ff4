package gar

import (
	"fmt"
	"testing"
)

// BenchmarkGARScale is one exact Krum round at n ∈ {64, 256, 1024},
// d = 10⁴, f = 10: the Θ(n²·d) pairwise pass at cohort sizes far past the
// paper's n = 11, where its quadratic growth in n dominates.
func BenchmarkGARScale(b *testing.B) {
	const f, d = 10, 10_000
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
			g, err := New("krum", n, f)
			if err != nil {
				b.Fatal(err)
			}
			grads := benchGrads(n, d)
			dst := make([]float64, d)
			// Warm the pools so the loop measures the steady state.
			if err := AggregateInto(g, dst, grads); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := AggregateInto(g, dst, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
