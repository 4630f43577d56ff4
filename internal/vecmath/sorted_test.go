package vecmath

import (
	"testing"
	"testing/quick"
)

func TestTrimmedCoordMean(t *testing.T) {
	tests := []struct {
		name string
		give [][]float64
		trim int
		want []float64
	}{
		{
			name: "zero trim equals mean",
			give: [][]float64{{1}, {2}, {3}},
			trim: 0,
			want: []float64{2},
		},
		{
			name: "trims extremes",
			give: [][]float64{{-100}, {1}, {2}, {3}, {100}},
			trim: 1,
			want: []float64{2},
		},
		{
			name: "per coordinate independently",
			give: [][]float64{{-100, 5}, {1, -100}, {2, 6}, {3, 7}, {100, 100}},
			trim: 1,
			want: []float64{2, 6},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := make([]float64, len(tt.want))
			if err := TrimmedCoordMeanInto(got, tt.give, tt.trim); err != nil {
				t.Fatal(err)
			}
			if !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("TrimmedCoordMeanInto = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTrimmedCoordMeanErrors(t *testing.T) {
	dst := make([]float64, 1)
	if err := TrimmedCoordMeanInto(dst, nil, 0); err == nil {
		t.Error("empty input did not error")
	}
	if err := TrimmedCoordMeanInto(dst, [][]float64{{1}, {2}}, 1); err == nil {
		t.Error("over-trimming did not error")
	}
	if err := TrimmedCoordMeanInto(dst, [][]float64{{1}}, -1); err == nil {
		t.Error("negative trim did not error")
	}
	if err := TrimmedCoordMeanInto(dst, [][]float64{{1}, {1, 2}, {3}}, 0); err == nil {
		t.Error("ragged input did not error")
	}
}

func TestMeanAroundMedian(t *testing.T) {
	// Median of {1,2,3,4,1000} is 3; the 3 closest values are {2,3,4}.
	got := make([]float64, 1)
	if err := MeanAroundMedianInto(got, [][]float64{{1}, {2}, {3}, {4}, {1000}}, 3); err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(got, []float64{3}, 1e-12) {
		t.Errorf("MeanAroundMedianInto = %v, want [3]", got)
	}
}

func TestMeanAroundMedianFullWindowIsMean(t *testing.T) {
	vs := [][]float64{{1, -4}, {5, 0}, {9, 2}}
	got := make([]float64, 2)
	if err := MeanAroundMedianInto(got, vs, 3); err != nil {
		t.Fatal(err)
	}
	mean, _ := Mean(vs)
	if !ApproxEqual(got, mean, 1e-12) {
		t.Errorf("MeanAroundMedianInto with m=n = %v, want mean %v", got, mean)
	}
}

func TestMeanAroundMedianErrors(t *testing.T) {
	dst := make([]float64, 1)
	if err := MeanAroundMedianInto(dst, nil, 1); err == nil {
		t.Error("empty input did not error")
	}
	if err := MeanAroundMedianInto(dst, [][]float64{{1}}, 0); err == nil {
		t.Error("m=0 did not error")
	}
	if err := MeanAroundMedianInto(dst, [][]float64{{1}}, 2); err == nil {
		t.Error("m>n did not error")
	}
	if err := MeanAroundMedianInto(dst, [][]float64{{1}, {1, 2}}, 1); err == nil {
		t.Error("ragged input did not error")
	}
}

// Property: the trimmed mean of each coordinate lies inside the untrimmed
// coordinate range (robustness sanity).
func TestTrimmedMeanWithinRange(t *testing.T) {
	f := func(vals [7]float64) bool {
		vs := make([][]float64, 7)
		for i, x := range vals {
			if x != x { // NaN
				x = 0
			}
			vs[i] = []float64{clampFinite(x)}
		}
		got := make([]float64, 1)
		if err := TrimmedCoordMeanInto(got, vs, 2); err != nil {
			return false
		}
		lo, hi := vs[0][0], vs[0][0]
		for _, v := range vs {
			if v[0] < lo {
				lo = v[0]
			}
			if v[0] > hi {
				hi = v[0]
			}
		}
		return got[0] >= lo-1e-9 && got[0] <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampFinite(x float64) float64 {
	const lim = 1e12
	switch {
	case x > lim:
		return lim
	case x < -lim:
		return -lim
	default:
		return x
	}
}
