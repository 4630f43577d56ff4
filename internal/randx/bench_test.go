package randx

import "testing"

// The ziggurat sampler: one uniform draw, a table lookup and a multiply in
// the common case.
func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal()
	}
	_ = sink
}

func BenchmarkSample(b *testing.B) {
	r := New(1)
	idx := make([]int, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Sample(idx, 8400)
	}
}

// The bulk fill against the per-variate loop it replaces, at the benchmark's
// wide dimension.
func BenchmarkNormalVec(b *testing.B) {
	dst := make([]float64, 10_000)
	b.Run("fill", func(b *testing.B) {
		r := New(1)
		for b.Loop() {
			r.NormalVec(dst, 1)
		}
	})
	b.Run("ref", func(b *testing.B) {
		r := New(1)
		var paths zigPaths
		for b.Loop() {
			for i := range dst {
				dst[i] = normalRef(r, &paths)
			}
		}
	})
}
