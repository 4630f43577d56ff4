package vecmath

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"dpbyz/internal/randx"
)

// forceParallel reconfigures the engine so even tiny inputs fan out across
// workers, and registers cleanup restoring the defaults.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	SetParallelism(workers)
	SetParallelGrain(1)
	t.Cleanup(func() {
		SetParallelism(0)
		SetParallelGrain(0)
	})
}

// randMatrix builds n random vectors of dimension d.
func randMatrix(rng *randx.Stream, n, d int) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, d)
		rng.NormalVec(vs[i], 1)
	}
	return vs
}

// referenceSortedColumn computes the sequential gather-sort-reduce reference
// for one coordinate.
func referenceColumn(vs [][]float64, j int) []float64 {
	col := make([]float64, len(vs))
	for i, v := range vs {
		col[i] = v[j]
	}
	sort.Float64s(col)
	return col
}

// TestParallelKernelsBitIdenticalToSequential is the engine's core safety
// property: for random n, trim counts and d, the chunked parallel kernels
// must produce bit-identical results to the sequential path and to a naive
// per-coordinate reference.
func TestParallelKernelsBitIdenticalToSequential(t *testing.T) {
	rng := randx.New(7)
	cases := []struct{ n, d int }{
		{1, 1}, {2, 3}, {5, 17}, {8, 64}, {11, 257}, {24, 1000}, {7, 4099},
	}
	for _, tc := range cases {
		vs := randMatrix(rng, tc.n, tc.d)
		b := (tc.n - 1) / 2 // largest valid trim count
		m := tc.n/2 + 1     // meamed window

		// Sequential ground truth.
		SetParallelism(1)
		seqMed := make([]float64, tc.d)
		seqTrim := make([]float64, tc.d)
		seqMeamed := make([]float64, tc.d)
		seqMean := make([]float64, tc.d)
		if err := CoordMedianInto(seqMed, vs); err != nil {
			t.Fatal(err)
		}
		if err := TrimmedCoordMeanInto(seqTrim, vs, b); err != nil {
			t.Fatal(err)
		}
		if err := MeanAroundMedianInto(seqMeamed, vs, m); err != nil {
			t.Fatal(err)
		}
		if err := MeanInto(seqMean, vs); err != nil {
			t.Fatal(err)
		}
		seqGram := poisonedSquare(tc.n)
		if err := PairwiseSqDistsInto(seqGram, vs); err != nil {
			t.Fatal(err)
		}

		// Forced-parallel run of the same kernels.
		forceParallel(t, 8)
		parMed := make([]float64, tc.d)
		parTrim := make([]float64, tc.d)
		parMeamed := make([]float64, tc.d)
		parMean := make([]float64, tc.d)
		if err := CoordMedianInto(parMed, vs); err != nil {
			t.Fatal(err)
		}
		if err := TrimmedCoordMeanInto(parTrim, vs, b); err != nil {
			t.Fatal(err)
		}
		if err := MeanAroundMedianInto(parMeamed, vs, m); err != nil {
			t.Fatal(err)
		}
		if err := MeanInto(parMean, vs); err != nil {
			t.Fatal(err)
		}
		parGram := poisonedSquare(tc.n)
		if err := PairwiseSqDistsInto(parGram, vs); err != nil {
			t.Fatal(err)
		}
		SetParallelism(0)
		SetParallelGrain(0)

		for j := 0; j < tc.d; j++ {
			if seqMed[j] != parMed[j] {
				t.Fatalf("n=%d d=%d: median[%d] differs: %v != %v", tc.n, tc.d, j, seqMed[j], parMed[j])
			}
			if seqTrim[j] != parTrim[j] {
				t.Fatalf("n=%d d=%d: trimmed[%d] differs: %v != %v", tc.n, tc.d, j, seqTrim[j], parTrim[j])
			}
			if seqMeamed[j] != parMeamed[j] {
				t.Fatalf("n=%d d=%d: meamed[%d] differs: %v != %v", tc.n, tc.d, j, seqMeamed[j], parMeamed[j])
			}
			if seqMean[j] != parMean[j] {
				t.Fatalf("n=%d d=%d: mean[%d] differs: %v != %v", tc.n, tc.d, j, seqMean[j], parMean[j])
			}
		}
		for i := range seqGram {
			for j := range seqGram[i] {
				if seqGram[i][j] != parGram[i][j] {
					t.Fatalf("n=%d d=%d: gram[%d][%d] differs", tc.n, tc.d, i, j)
				}
			}
		}

		// Spot-check the kernels against the naive per-coordinate reference.
		for _, j := range []int{0, tc.d / 2, tc.d - 1} {
			col := referenceColumn(vs, j)
			if want := MedianSorted(col); seqMed[j] != want {
				t.Fatalf("median[%d] = %v, reference %v", j, seqMed[j], want)
			}
			var s float64
			for _, x := range col[b : tc.n-b] {
				s += x
			}
			if want := s / float64(tc.n-2*b); seqTrim[j] != want {
				t.Fatalf("trimmed[%d] = %v, reference %v", j, seqTrim[j], want)
			}
		}
	}
}

// TestIntoKernelsMatchAllocatingVariants pins MeanInto to Mean, the one
// allocating counterpart of an *Into kernel.
func TestIntoKernelsMatchAllocatingVariants(t *testing.T) {
	rng := randx.New(3)
	vs := randMatrix(rng, 9, 33)
	dst := make([]float64, 33)

	want, err := Mean(vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := MeanInto(dst, vs); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(dst, want, 0) {
		t.Error("MeanInto diverges from Mean")
	}
}

// TestIntoKernelsValidation checks the error paths of the *Into kernels.
func TestIntoKernelsValidation(t *testing.T) {
	vs := [][]float64{{1, 2}, {3, 4}}
	short := make([]float64, 1)
	ok := make([]float64, 2)
	if err := CoordMedianInto(short, vs); err == nil {
		t.Error("CoordMedianInto accepted a short destination")
	}
	if err := MeanInto(short, vs); err == nil {
		t.Error("MeanInto accepted a short destination")
	}
	if err := MeanInto(ok, nil); err == nil {
		t.Error("MeanInto accepted empty input")
	}
	if err := CoordMedianInto(ok, [][]float64{{1}, {1, 2}}); err == nil {
		t.Error("CoordMedianInto accepted ragged input")
	}
	if err := TrimmedCoordMeanInto(ok, vs, 1); err == nil {
		t.Error("TrimmedCoordMeanInto accepted 2b >= n")
	}
	if err := MeanAroundMedianInto(ok, vs, 3); err == nil {
		t.Error("MeanAroundMedianInto accepted m > n")
	}
}

// TestInlineKernelsZeroAlloc asserts the sequential (sub-grain) kernels
// allocate nothing on the steady state — the property the training loop's
// per-step budget relies on.
func TestInlineKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; alloc counts are meaningless")
	}
	rng := randx.New(5)
	vs := randMatrix(rng, 11, 256)
	dst := make([]float64, 256)
	gram := poisonedSquare(len(vs))
	if err := PairwiseSqDistsInto(gram, vs); err != nil {
		t.Fatal(err)
	}

	// Warm the pools.
	if err := CoordMedianInto(dst, vs); err != nil {
		t.Fatal(err)
	}

	type check struct {
		name string
		fn   func()
	}
	checks := []check{
		{"CoordMedianInto", func() { _ = CoordMedianInto(dst, vs) }},
		{"TrimmedCoordMeanInto", func() { _ = TrimmedCoordMeanInto(dst, vs, 4) }},
		{"MeanAroundMedianInto", func() { _ = MeanAroundMedianInto(dst, vs, 6) }},
		{"MeanInto", func() { _ = MeanInto(dst, vs) }},
		{"PairwiseSqDistsInto", func() { _ = PairwiseSqDistsInto(gram, vs) }},
	}
	// The tiled sorted-column path at the benchmark's n = 16 and at n = 64,
	// both with full-width tiles, and with a planted NaN so the per-tile
	// fallback into reduceSortedColumnsRef (a nested getCol) is covered too.
	for _, n := range []int{16, 64} {
		d := 2*tileCols(n) + 3
		wide, wdst := randMatrix(rng, n, d), make([]float64, d)
		poisoned := randMatrix(rng, n, d)
		poisoned[1][d-1] = math.NaN()
		for _, in := range [][][]float64{wide, poisoned} {
			checks = append(checks,
				check{fmt.Sprintf("CoordMedianInto n=%d", n), func() { _ = CoordMedianInto(wdst, in) }},
				check{fmt.Sprintf("TrimmedCoordMeanInto n=%d", n), func() { _ = TrimmedCoordMeanInto(wdst, in, n/4) }},
				check{fmt.Sprintf("MeanAroundMedianInto n=%d", n), func() { _ = MeanAroundMedianInto(wdst, in, n-n/4) }},
			)
		}
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call on the inline path", c.name, allocs)
		}
	}
}

// TestChunkBounds pins the chunk partitioning: chunks must tile [0, n)
// exactly, in order, with sizes differing by at most one.
func TestChunkBounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1001} {
		for w := 1; w <= 9; w++ {
			prev := 0
			for c := 0; c < w; c++ {
				lo, hi := chunkBounds(n, w, c)
				if lo != prev {
					t.Fatalf("n=%d w=%d c=%d: lo=%d, want %d", n, w, c, lo, prev)
				}
				if size := hi - lo; size < n/w || size > n/w+1 {
					t.Fatalf("n=%d w=%d c=%d: size %d out of balance", n, w, c, size)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d w=%d: chunks end at %d", n, w, prev)
			}
		}
	}
}

// TestChunkWorkersRespectsGrain verifies the fan-out gate: small inputs stay
// inline, large inputs are capped by both the grain and the configured
// worker cap.
func TestChunkWorkersRespectsGrain(t *testing.T) {
	forceParallel(t, 4)
	SetParallelGrain(100)
	if w := ChunkWorkers(99); w != 1 {
		t.Errorf("ChunkWorkers(99) = %d below one grain", w)
	}
	if w := ChunkWorkers(250); w != 2 {
		t.Errorf("ChunkWorkers(250) = %d, want 2", w)
	}
	if w := ChunkWorkers(100_000); w != 4 {
		t.Errorf("ChunkWorkers(1e5) = %d, want the cap 4", w)
	}
	if parallelism() != 4 || parallelGrain() != 100 {
		t.Error("knobs did not round-trip")
	}
}

// TestChunkWorkersAtBenchmarkShapes pins the default grain's decision at
// the shapes it was measured on, two cores: what stays inline and what
// splits. Each work count is the caller's own formula (n·d for a
// coordinate-wise kernel, n(n−1)/2·d for the pairwise pass, workers·b·d for
// a gradient sweep), so a grain edit that flips a benchmark shape fails
// here by name.
func TestChunkWorkersAtBenchmarkShapes(t *testing.T) {
	SetParallelism(2)
	t.Cleanup(func() { SetParallelism(0) })
	pairs := func(n int) int { return n * (n - 1) / 2 }
	for _, c := range []struct {
		name string
		work int
		want int
	}{
		{"fig2 sweep: 6 honest × b=50 × d=69", 6 * 50 * 69, 1},
		{"fleet sweep: 8 workers × b=10 × d=11", 8 * 10 * 11, 1},
		{"krum pairwise n=8, d=1000", pairs(8) * 1000, 1},
		{"krum pairwise n=8, d=2000", pairs(8) * 2000, 2},
		{"mean n=16, d=1250", 16 * 1250, 1},
		{"median n=16, d=2500", 16 * 2500, 2},
		{"median n=16, d=10⁴", 16 * 10_000, 2},
		{"median n=64, d=10⁴", 64 * 10_000, 2},
		{"krum pairwise n=16, d=10⁴", pairs(16) * 10_000, 2},
		{"krum pairwise n=64, d=10⁴", pairs(64) * 10_000, 2},
		{"wide sweep: 16 workers × b=10 × d=10⁴", 16 * 10 * 10_000, 2},
	} {
		if got := ChunkWorkers(c.work); got != c.want {
			t.Errorf("%s: ChunkWorkers(%d) = %d, want %d", c.name, c.work, got, c.want)
		}
	}
}

// TestMedianSorted pins the shared median definition on both parities.
func TestMedianSorted(t *testing.T) {
	if got := MedianSorted([]float64{1, 2, 3}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := MedianSorted([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := MedianSorted([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v", got)
	}
	if got := MedianSorted([]float64{math.Inf(-1), 4}); got != math.Inf(-1) {
		t.Errorf("inf median = %v", got)
	}
}
