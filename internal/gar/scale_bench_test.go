package gar

import (
	"fmt"
	"os"
	"testing"
)

// scaleFull gates the heavy cells of the large-(n, d) grid: the exact kernel
// at n = 1024, d = 10⁶ runs minutes per op on one core, so CI's
// `-benchtime 1x` smoke only executes the light cells and the full grid (the
// committed BENCH_gar_scale.json) is produced locally with
// DPBYZ_GAR_SCALE_FULL=1.
func scaleFull() bool { return os.Getenv("DPBYZ_GAR_SCALE_FULL") != "" }

// BenchmarkGARScale is the kernel knob's developer benchmark: one Krum round
// at n ∈ {64, 256, 1024}, d ∈ {10⁴, 10⁶}, f = 10, exact against sketched.
// "exact" is the flat Θ(n²·d) rule; "sketched" replaces the pairwise pass
// with Θ(n·d) JL projection + Θ(n²·k) sketch distances + Θ(c·n·d) exact
// re-check of the shortlist.
func BenchmarkGARScale(b *testing.B) {
	modes := []struct {
		name  string
		build func(n, f int) (GAR, error)
	}{
		{"exact", func(n, f int) (GAR, error) { return New("krum", n, f) }},
		{"sketched", func(n, f int) (GAR, error) {
			return NewSketched("krum", n, f, SketchOptions{Seed: 1})
		}},
	}
	const f = 10
	for _, n := range []int{64, 256, 1024} {
		for _, d := range []int{10_000, 1_000_000} {
			heavy := d >= 1_000_000 && n > 64
			for _, m := range modes {
				m := m
				n, d := n, d
				b.Run(fmt.Sprintf("%s/n=%d/d=%d", m.name, n, d), func(b *testing.B) {
					if heavy && !scaleFull() {
						b.Skip("heavy cell: set DPBYZ_GAR_SCALE_FULL=1")
					}
					g, err := m.build(n, f)
					if err != nil {
						b.Fatal(err)
					}
					grads := benchGrads(n, d)
					dst := make([]float64, d)
					// Warm the pools and the lazy sketcher so the loop measures
					// the steady state.
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
	}
}
