package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	w1 := root.Derive(1)
	w2 := root.Derive(2)
	w1again := root.Derive(1)
	if w1.Uint64() != w1again.Uint64() {
		t.Error("Derive is not deterministic in its labels")
	}
	if w1.Uint64() == w2.Uint64() {
		t.Error("sibling derived streams produced identical draws")
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Derive(5)
	if a.Uint64() != b.Uint64() {
		t.Error("Derive advanced the parent stream")
	}
}

func TestDeriveMultiLabel(t *testing.T) {
	root := New(3)
	if root.Derive(1, 2).Uint64() == root.Derive(2, 1).Uint64() {
		t.Error("label order should matter in Derive")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from expected %.0f", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %v, want ~1", variance)
	}
}

func TestNormalVecScalesSigma(t *testing.T) {
	r := New(23)
	const n = 100000
	v := make([]float64, n)
	r.NormalVec(v, 3)
	var sumSq float64
	for _, x := range v {
		sumSq += x * x
	}
	if got := sumSq / n; math.Abs(got-9) > 0.3 {
		t.Errorf("NormalVec variance = %v, want ~9", got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(29)
	const n, scale = 200000, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// Var of Laplace(0, b) is 2b^2 = 8.
	if math.Abs(variance-8) > 0.4 {
		t.Errorf("Laplace variance = %v, want ~8", variance)
	}
}

// A uniform of exactly 0 maps to u = -1/2, where the inverse CDF is
// b·log(0) = -Inf; Laplace must redraw that one value. The state below makes
// the first Uint64 exactly 0 (rotl(0+0, 23) + 0), so Float64 returns 0.
func TestLaplaceFiniteOnZeroUniform(t *testing.T) {
	st := StreamState{S: [4]uint64{0, 1, 0, 0}}
	if u := Restore(st).Uint64(); u != 0 {
		t.Fatalf("first Uint64 = %#x, want 0", u)
	}
	r := Restore(st)
	if x := r.Laplace(1); math.IsInf(x, 0) || math.IsNaN(x) {
		t.Fatalf("Laplace(1) = %v on a zero uniform, want finite", x)
	}
	// The redraw consumed exactly one extra uniform: the stream sits where
	// two Uint64 calls leave it.
	ref := Restore(st)
	ref.Uint64()
	ref.Uint64()
	if r.State() != ref.State() {
		t.Errorf("stream after redraw = %v, want %v", r.State(), ref.State())
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(37)
	idx := make([]int, 20)
	r.Sample(idx, 100)
	seen := make(map[int]bool, len(idx))
	for _, v := range idx {
		if v < 0 || v >= 100 {
			t.Fatalf("Sample index out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("Sample produced duplicate index %d", v)
		}
		seen[v] = true
	}
}

func TestSampleFullPopulation(t *testing.T) {
	r := New(41)
	idx := make([]int, 10)
	r.Sample(idx, 10)
	seen := make([]bool, 10)
	for _, v := range idx {
		if seen[v] {
			t.Fatalf("full-population sample duplicated %d", v)
		}
		seen[v] = true
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Sample did not panic")
		}
	}()
	New(1).Sample(make([]int, 5), 4)
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, 2)
	if hi != 1 || lo != math.MaxUint64-1 {
		t.Errorf("mul64(MaxUint64, 2) = (%d, %d)", hi, lo)
	}
	hi, lo = mul64(0, 12345)
	if hi != 0 || lo != 0 {
		t.Errorf("mul64(0, x) = (%d, %d)", hi, lo)
	}
}

// uint64sLengths are the fill lengths the bulk-draw tests cover: every
// length up to 9 and one long fill.
var uint64sLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10_000}

// Uint64s must return the words successive Uint64 calls from the same
// state would, and leave the stream where those calls leave it.
func TestUint64sMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x5048495348} {
		for _, n := range uint64sLengths {
			bulk, ref := New(seed), New(seed)
			bulk.Uint64() // start mid-stream
			ref.Uint64()
			got := bulk.Uint64s(make([]uint64, n))
			if len(got) != n {
				t.Fatalf("seed %d n=%d: returned %d words", seed, n, len(got))
			}
			for k, w := range got {
				if want := ref.Uint64(); w != want {
					t.Fatalf("seed %d n=%d: word %d = %#x, want %#x", seed, n, k, w, want)
				}
			}
			if bulk.State() != ref.State() {
				t.Fatalf("seed %d n=%d: state %v after the fill, want %v", seed, n, bulk.State(), ref.State())
			}
		}
	}
}
