package vecmath

import (
	"fmt"
	"math"
	"testing"

	"dpbyz/internal/randx"
)

// pairwiseRowsRef is the per-pair loop the tile kernel replaced, kept
// verbatim in the test file only: one SqDist call, hence one serial
// add-latency chain, per pair. It is BenchmarkPairwise's baseline and the
// oracle of the differential tests.
func pairwiseRowsRef(dst [][]float64, vs [][]float64, c, w int) {
	n := len(vs)
	for i := c; i < n; i += w {
		dst[i][i] = 0
		for j := i + 1; j < n; j++ {
			dv := SqDist(vs[i], vs[j])
			dst[i][j] = dv
			dst[j][i] = dv
		}
	}
}

// pairwiseSqDistsRef is PairwiseSqDistsInto's worker split around
// pairwiseRowsRef, so the benchmark compares like with like at -cpu 2.
func pairwiseSqDistsRef(dst [][]float64, vs [][]float64) {
	n := len(vs)
	w := min(ChunkWorkers(n*(n-1)/2*len(vs[0])), n)
	if w > 1 {
		RunStriped(w, func(c int) { pairwiseRowsRef(dst, vs, c, w) })
		return
	}
	pairwiseRowsRef(dst, vs, 0, 1)
}

// poisonedSquare returns an n×n matrix of a value no distance takes, so an
// entry the kernel skipped shows.
func poisonedSquare(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		Fill(m[i], -7)
	}
	return m
}

// sameDist reports whether got is the distance want, bit for bit. Two NaNs
// count as the same whatever their payloads: when NaNs of different payloads
// meet in one sum (a planted NaN and the one Inf−Inf makes, say), the one
// that survives `s += d*d` is the destination operand of the ADDSD, which is
// the register allocator's choice — it differs between SqDist and a copy of
// SqDist inlined elsewhere, and under the fuzzer's coverage instrumentation.
func sameDist(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || got != got && want != want
}

// sqDistOracle returns the matrix the per-pair loop fills: SqDist once per
// pair.
func sqDistOracle(vs [][]float64) [][]float64 {
	want := poisonedSquare(len(vs))
	pairwiseRowsRef(want, vs, 0, 1)
	return want
}

// requirePairwiseMatches fails unless every entry of PairwiseSqDistsInto(vs)
// is the oracle's by sameDist with a bit-equal mirror and the diagonal is
// exactly +0.
func requirePairwiseMatches(t *testing.T, vs, want [][]float64, label string) {
	t.Helper()
	n := len(vs)
	got := poisonedSquare(n)
	if err := PairwiseSqDistsInto(got, vs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(got[i][i]) != 0 {
			t.Fatalf("%s: dst[%d][%d] = %v (%#x), want +0", label, i, i, got[i][i], math.Float64bits(got[i][i]))
		}
		for j := i + 1; j < n; j++ {
			if !sameDist(got[i][j], want[i][j]) || math.Float64bits(got[j][i]) != math.Float64bits(got[i][j]) {
				t.Fatalf("%s: dst[%d][%d] = %v (%#x), mirror %v (%#x), SqDist %v (%#x)", label, i, j,
					got[i][j], math.Float64bits(got[i][j]), got[j][i], math.Float64bits(got[j][i]),
					want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

// TestPairwiseMatchesSqDist is the differential test of the tile kernel
// against the single-pair function it must reproduce bit for bit
// (sameDist): every n in 1..13 plus 16, 63, 64, 65 and 130 (every residue
// of n mod 4, odd n whose last row is a pair on its own, sweeps padded to
// four rows), dimensions from 0 to 1000, inputs that are all equal,
// Gaussian, duplicated rows, and Gaussian with planted NaN / ±Inf / −0 /
// ±MaxFloat64 / subnormals — in a few coordinates and in whole rows — on
// the inline path and on the striped one: at every fan-out width up to
// ⌈n/2⌉ for n ≤ 13, at two and three workers beyond. The -race CI line
// runs it too.
func TestPairwiseMatchesSqDist(t *testing.T) {
	rng := randx.New(31)
	ns := []int{16, 63, 64, 65, 130}
	for n := 1; n <= 13; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for _, d := range []int{0, 1, 3, 69, 513, 1000} {
			fills := []struct {
				name string
				at   func(i, j int) float64
			}{
				{"equal", func(i, j int) float64 { return 1.5 }},
				{"gaussian", func(i, j int) float64 { return rng.Normal() }},
				{"planted", func(i, j int) float64 {
					if (i+j)%17 == 0 {
						return specials[(i+j/17)%len(specials)]
					}
					return rng.Normal()
				}},
				{"special rows", func(i, j int) float64 {
					if i%4 == 1 {
						return specials[(i/4+j)%len(specials)]
					}
					return 1e150 * rng.Normal() // squares overflow to +Inf
				}},
			}
			for _, fill := range fills {
				vs := make([][]float64, n)
				for i := range vs {
					vs[i] = make([]float64, d)
					for j := range vs[i] {
						vs[i][j] = fill.at(i, j)
					}
				}
				names, inputs := []string{fill.name}, [][][]float64{vs}
				if fill.name == "gaussian" {
					dup := make([][]float64, n)
					for i := range dup {
						dup[i] = vs[i/2] // rows alias pairwise: distance exactly +0
					}
					names, inputs = append(names, "duplicated rows"), append(inputs, dup)
				}
				for k, in := range inputs {
					want := sqDistOracle(in)
					widths := []int{1, 2, 3}
					if n <= 13 {
						widths = nil
						for w := 1; w <= (n+1)/2; w++ {
							widths = append(widths, w)
						}
					}
					for _, workers := range widths {
						forceParallel(t, workers)
						requirePairwiseMatches(t, in, want,
							fmt.Sprintf("n=%d d=%d %s workers=%d", n, d, names[k], workers))
					}
				}
			}
		}
	}
}

// fuzzPairwiseInput decodes fuzz bytes into a rectangular input: byte 0
// picks n in 1..24 and every further byte one value — a special (NaN, ±0,
// ±Inf, …) for the low codes, otherwise a value with a full mantissa so
// that the order of the additions inside a sum shows in its last bits.
func fuzzPairwiseInput(data []byte) ([][]float64, bool) {
	if len(data) < 1 {
		return nil, false
	}
	n := 1 + int(data[0])%24
	vals := data[1:]
	d := len(vals) / n
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, d)
		for j := range vs[i] {
			b := vals[j*n+i]
			if int(b) < 2*len(specials) {
				vs[i][j] = specials[int(b)/2]
			} else {
				vs[i][j] = float64(int(b)-128) / 7 * math.Pow(10, float64(int(b)%5-2))
			}
		}
	}
	return vs, true
}

// FuzzPairwise asserts the property of TestPairwiseMatchesSqDist on
// fuzzer-chosen shapes and values.
func FuzzPairwise(f *testing.F) {
	f.Add([]byte{4, 200, 3, 0, 2, 130, 131, 4, 6, 8, 10, 12, 14, 16, 18, 140, 150, 160, 170, 180, 190})
	f.Add([]byte{0, 130, 2, 131})
	f.Add([]byte{9})
	f.Add([]byte{6, 100, 101, 102, 103, 104, 105, 106, 2, 2, 2, 2, 2, 2, 2, 0, 17, 16, 5, 4, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if vs, ok := fuzzPairwiseInput(data); ok {
			requirePairwiseMatches(t, vs, sqDistOracle(vs), "fuzz")
		}
	})
}

// BenchmarkPairwise is the committed micro-cell of the pairwise
// squared-distance kernel: the tile kernel against the per-pair loop it
// replaced on Gaussian rows, both behind the same worker split (run it with
// -cpu 1,2). A number from here is a hypothesis until the krum_wide_chan
// workload confirms it (ROADMAP rule iii).
func BenchmarkPairwise(b *testing.B) {
	rng := randx.New(1)
	kernels := []struct {
		name string
		fn   func(dst [][]float64, vs [][]float64)
	}{
		{"blocked", func(dst [][]float64, vs [][]float64) { _ = PairwiseSqDistsInto(dst, vs) }},
		{"ref", pairwiseSqDistsRef},
	}
	for _, n := range []int{11, 16, 64, 256} {
		for _, d := range []int{69, 10000} {
			vs := randMatrix(rng, n, d)
			dst := poisonedSquare(n)
			for _, k := range kernels {
				b.Run(fmt.Sprintf("n=%d/d=%d/%s", n, d, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.fn(dst, vs)
					}
					benchSink = dst[0][n-1]
				})
			}
		}
	}
}
