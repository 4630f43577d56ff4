package vecmath

import (
	"fmt"
	"math"
	"testing"

	"dpbyz/internal/randx"
)

// sortedColReduces returns every op at its extreme parameters for n rows.
func sortedColReduces(n int) []colReduce {
	return []colReduce{
		{op: opMedian},
		{op: opTrimmedMean, trim: 0},
		{op: opTrimmedMean, trim: (n - 1) / 2},
		{op: opMeamed, m: 1},
		{op: opMeamed, m: n},
	}
}

// specials lists the values the tiled kernel must hand to the reference loop
// (NaN, −0) next to the ones that look special and are not (±Inf, +0, the
// largest finite magnitudes, a subnormal).
var specials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), // NaN of either sign
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// requireMatchesRef runs the tiled kernel and the reference loop over
// [lo, hi) of the same input and fails on the first bit that differs,
// including any write outside the range.
func requireMatchesRef(t *testing.T, vs [][]float64, red colReduce, lo, hi int) {
	t.Helper()
	d := len(vs[0])
	got, want := make([]float64, d), make([]float64, d)
	for j := range got {
		got[j], want[j] = -7, -7
	}
	reduceSortedColumnsRange(got, vs, red, lo, hi)
	reduceSortedColumnsRef(want, vs, red, lo, hi)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("n=%d d=%d [%d,%d) %+v: dst[%d] = %v (%#x), reference %v (%#x)",
				len(vs), d, lo, hi, red, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestSortedColumnsMatchReference is the differential test of the tiled
// sorted-column kernel against the in-tree oracle reduceSortedColumnsRef:
// every n in 1..67 plus 128 and 257, tile-edge dimensions, sub-ranges that
// split a tile, every op at its extreme parameters, and inputs that are all
// equal, tie-heavy small integers, and Gaussian with planted NaN / ±Inf /
// ±0 — in one coordinate per tile and in every coordinate. It ends with the
// chunked entry point at parallelism 2, which is what the -race CI line
// exercises.
func TestSortedColumnsMatchReference(t *testing.T) {
	rng := randx.New(29)
	ns := []int{128, 257}
	for n := 1; n <= 67; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		T := tileCols(n)
		for _, d := range []int{0, 1, T - 1, T, T + 1, 3*T + 5} {
			fills := []func(i, j int) float64{
				func(i, j int) float64 { return 1.5 },                      // all equal
				func(i, j int) float64 { return float64(rng.Intn(5) - 2) }, // tie-heavy
				func(i, j int) float64 { return rng.Normal() },
				func(i, j int) float64 { // one planted special per tile
					if j%T == (3*i)%T && i%3 == 0 {
						return specials[(i/3+j/T)%len(specials)]
					}
					return rng.Normal()
				},
				func(i, j int) float64 { // a quarter of the rows all special
					if i < (n+3)/4 {
						return specials[(i+j)%len(specials)]
					}
					return rng.Normal()
				},
			}
			for _, fill := range fills {
				vs := make([][]float64, n)
				for i := range vs {
					vs[i] = make([]float64, d)
					for j := range vs[i] {
						vs[i][j] = fill(i, j)
					}
				}
				for _, red := range sortedColReduces(n) {
					requireMatchesRef(t, vs, red, 0, d)
					if d > T {
						// Sub-ranges that start and end inside a tile.
						requireMatchesRef(t, vs, red, 1, d-2)
						requireMatchesRef(t, vs, red, T/2, min(d, T+T/2+1))
						requireMatchesRef(t, vs, red, d-1, d)
					}
				}
			}
		}
	}

	// The chunked entry point: two goroutines, chunk boundary inside a tile.
	forceParallel(t, 2)
	for _, n := range []int{2, 16, 33} {
		d := 2*tileCols(n) + 11
		vs := randMatrix(rng, n, d)
		vs[0][5] = math.NaN()
		vs[n-1][d-1] = math.Copysign(0, -1)
		for _, red := range sortedColReduces(n) {
			got, want := make([]float64, d), make([]float64, d)
			reduceSortedColumns(got, vs, red)
			reduceSortedColumnsRef(want, vs, red, 0, d)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("chunked n=%d %+v: dst[%d] = %v, reference %v", n, red, j, got[j], want[j])
				}
			}
		}
	}
}

// fuzzSortedColumnsInput decodes fuzz bytes into a rectangular input and an
// op: byte 0 picks n in 1..67, byte 1 the op, byte 2 its parameter, and
// every further byte one value — a special (NaN, ±0, ±Inf, …) for the low
// codes, a small integer otherwise, so ties and unorderable tiles are dense.
func fuzzSortedColumnsInput(data []byte) ([][]float64, colReduce, bool) {
	if len(data) < 4 {
		return nil, colReduce{}, false
	}
	n := 1 + int(data[0])%67
	red := colReduce{op: int(data[1]) % 3}
	red.trim = int(data[2]) % ((n-1)/2 + 1)
	red.m = 1 + int(data[2])%n
	vals := data[3:]
	d := len(vals) / n
	if d == 0 {
		return nil, colReduce{}, false
	}
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, d)
		for j := range vs[i] {
			b := vals[j*n+i]
			if int(b) < 2*len(specials) {
				vs[i][j] = specials[int(b)/2]
			} else {
				vs[i][j] = float64(int(b)-128) / 4
			}
		}
	}
	return vs, red, true
}

// FuzzSortedColumns asserts the differential property of
// TestSortedColumnsMatchReference on fuzzer-chosen shapes and values.
func FuzzSortedColumns(f *testing.F) {
	f.Add([]byte{15, 0, 0, 200, 3, 0, 2, 130, 131, 4, 6, 8, 10, 12, 14, 16, 18, 140, 150})
	f.Add([]byte{1, 1, 0, 130, 2, 131, 0, 129})
	f.Add([]byte{6, 2, 3, 100, 101, 102, 103, 104, 105, 106, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, red, ok := fuzzSortedColumnsInput(data)
		if !ok {
			return
		}
		requireMatchesRef(t, vs, red, 0, len(vs[0]))
	})
}

var benchSink float64

// BenchmarkSortedColumns is the committed micro-cell of the sorted-column
// kernel: the tiled path against reduceSortedColumnsRef on Gaussian inputs,
// one goroutine, d = 10⁴. A number from here is a hypothesis until the
// median_epoch_tcp workload confirms it (ROADMAP rule iii).
func BenchmarkSortedColumns(b *testing.B) {
	const d = 10000
	rng := randx.New(1)
	kernels := []struct {
		name string
		fn   func(dst []float64, vs [][]float64, red colReduce, lo, hi int)
	}{
		{"tiled", reduceSortedColumnsRange},
		{"ref", reduceSortedColumnsRef},
	}
	for _, n := range []int{8, 16, 32, 64, 256} {
		vs := randMatrix(rng, n, d)
		dst := make([]float64, d)
		reds := []struct {
			name string
			red  colReduce
		}{
			{"median", colReduce{op: opMedian}},
			{"trimmedmean", colReduce{op: opTrimmedMean, trim: n / 4}},
			{"meamed", colReduce{op: opMeamed, m: n - n/4}},
		}
		for _, r := range reds {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, r.name, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.fn(dst, vs, r.red, 0, d)
					}
					benchSink = dst[0]
				})
			}
		}
	}
}
