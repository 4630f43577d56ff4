package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClone(t *testing.T) {
	v := []float64{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original slice")
	}
}

// The add and scale compositions the gar and attack tests build on Clone
// leave their inputs alone.
func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Axpy(1, b, Clone(a)); !ApproxEqual(got, []float64{5, 7, 9}, 0) {
		t.Errorf("Axpy(1, b, Clone(a)) = %v", got)
	}
	if got := ScaleInPlace(2, Clone(a)); !ApproxEqual(got, []float64{2, 4, 6}, 0) {
		t.Errorf("ScaleInPlace(2, Clone(a)) = %v", got)
	}
	if !ApproxEqual(a, []float64{1, 2, 3}, 0) || !ApproxEqual(b, []float64{4, 5, 6}, 0) {
		t.Errorf("inputs moved: a = %v, b = %v", a, b)
	}
}

// SubInto writes into dst the a - b that the allocating composition
// Axpy(-1, b, Clone(a)) returns.
func TestIntoVariantsMatchAllocVariants(t *testing.T) {
	a := []float64{1, -2, 3.5}
	b := []float64{0.5, 2, -1}
	dst := make([]float64, 3)
	want := Axpy(-1, b, Clone(a))
	if got := SubInto(dst, a, b); &got[0] != &dst[0] || !ApproxEqual(got, want, 0) || !ApproxEqual(got, []float64{0.5, -4, 4.5}, 0) {
		t.Errorf("SubInto = %v, want %v", got, want)
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 1}
	Axpy(3, []float64{2, -1}, dst)
	if !ApproxEqual(dst, []float64{7, -2}, 0) {
		t.Errorf("Axpy = %v", dst)
	}
}

func TestScaleInPlace(t *testing.T) {
	v := []float64{1, -2}
	ScaleInPlace(-2, v)
	if !ApproxEqual(v, []float64{-2, 4}, 0) {
		t.Errorf("ScaleInPlace = %v", v)
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v", got)
	}
	if got := Norm(a); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := SqNorm(a); got != 25 {
		t.Errorf("SqNorm = %v", got)
	}
	if got := Dist([]float64{0, 0}, a); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := SqDist([]float64{0, 0}, a); got != 25 {
		t.Errorf("SqDist = %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched lengths did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestClipL2(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		max  float64
		want []float64
	}{
		{name: "inside ball untouched", give: []float64{0.3, 0.4}, max: 1, want: []float64{0.3, 0.4}},
		{name: "outside ball scaled", give: []float64{3, 4}, max: 1, want: []float64{0.6, 0.8}},
		{name: "exactly on boundary", give: []float64{3, 4}, max: 5, want: []float64{3, 4}},
		{name: "non-positive max zeroes", give: []float64{1, 1}, max: 0, want: []float64{0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ClipL2(Clone(tt.give), tt.max)
			if !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("ClipL2(%v, %v) = %v, want %v", tt.give, tt.max, got, tt.want)
			}
		})
	}
}

// Property: after clipping, the norm never exceeds the bound.
func TestClipL2Property(t *testing.T) {
	f := func(raw []float64, maxRaw float64) bool {
		max := math.Abs(maxRaw)
		if max == 0 || math.IsNaN(max) || math.IsInf(max, 0) {
			max = 1
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = x
		}
		got := ClipL2(v, max)
		return Norm(got) <= max*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(m, []float64{3, 4}, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) did not error")
	}
	if _, err := Mean([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("Mean on ragged input did not error")
	}
}

func TestCoordMedian(t *testing.T) {
	tests := []struct {
		name string
		give [][]float64
		want []float64
	}{
		{name: "odd count", give: [][]float64{{1, 9}, {2, 8}, {100, -5}}, want: []float64{2, 8}},
		{name: "even count averages middles", give: [][]float64{{1}, {3}, {5}, {100}}, want: []float64{4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := make([]float64, len(tt.want))
			if err := CoordMedianInto(got, tt.give); err != nil {
				t.Fatal(err)
			}
			if !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("CoordMedianInto = %v, want %v", got, tt.want)
			}
		})
	}
	if err := CoordMedianInto(make([]float64, 1), nil); err == nil {
		t.Error("CoordMedianInto(nil) did not error")
	}
	if err := CoordMedianInto(make([]float64, 1), [][]float64{{1}, {1, 2}}); err == nil {
		t.Error("CoordMedianInto on ragged input did not error")
	}
}

// Property: each coordinate of the median lies within the coordinate range.
func TestCoordMedianWithinRange(t *testing.T) {
	f := func(seedVals []float64) bool {
		if len(seedVals) < 3 {
			return true
		}
		// Build 5 vectors of dimension 3 from the fuzz payload.
		vs := make([][]float64, 5)
		k := 0
		for i := range vs {
			vs[i] = make([]float64, 3)
			for j := range vs[i] {
				x := seedVals[k%len(seedVals)]
				if math.IsNaN(x) || math.IsInf(x, 0) {
					x = 0
				}
				vs[i][j] = x
				k++
			}
		}
		med := make([]float64, 3)
		if err := CoordMedianInto(med, vs); err != nil {
			return false
		}
		for j := 0; j < 3; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				lo = math.Min(lo, v[j])
				hi = math.Max(hi, v[j])
			}
			if med[j] < lo-1e-9 || med[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCoordStd(t *testing.T) {
	vs := [][]float64{{0, 10}, {2, 10}, {4, 10}}
	std, err := CoordStd(vs)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((4 + 0 + 4) / 3.0)
	if !almostEqual(std[0], want, 1e-12) {
		t.Errorf("std[0] = %v, want %v", std[0], want)
	}
	if std[1] != 0 {
		t.Errorf("std of constant coordinate = %v, want 0", std[1])
	}
	if _, err := CoordStd(nil); err == nil {
		t.Error("CoordStd(nil) did not error")
	}
}

func TestPairwiseSqDists(t *testing.T) {
	vs := [][]float64{{0, 0}, {3, 4}, {0, 1}}
	m := poisonedSquare(len(vs))
	if err := PairwiseSqDistsInto(m, vs); err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 25 || m[1][0] != 25 {
		t.Errorf("pairwise[0][1] = %v", m[0][1])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Error("diagonal not zero")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("+Inf not detected")
	}
}

func TestFill(t *testing.T) {
	v := Fill(make([]float64, 3), 2)
	if !ApproxEqual(v, []float64{2, 2, 2}, 0) {
		t.Errorf("Fill = %v", v)
	}
}

func TestApproxEqualLengthMismatch(t *testing.T) {
	if ApproxEqual([]float64{1}, []float64{1, 2}, 1) {
		t.Error("ApproxEqual accepted different lengths")
	}
}
