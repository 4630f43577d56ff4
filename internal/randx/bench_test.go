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
