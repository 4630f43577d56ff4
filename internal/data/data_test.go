package data

import (
	"strings"
	"testing"

	"dpbyz/internal/randx"
)

func mustDataset(t *testing.T, pts []Point) *Dataset {
	t.Helper()
	ds, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) did not error")
	}
	if _, err := New([]Point{{X: []float64{1}}, {X: []float64{1, 2}}}); err == nil {
		t.Error("ragged points did not error")
	}
}

func TestAccessors(t *testing.T) {
	ds := mustDataset(t, []Point{{X: []float64{1, 2}, Y: 1}, {X: []float64{3, 4}, Y: 0}})
	if ds.Len() != 2 || ds.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", ds.Len(), ds.Dim())
	}
	if p := ds.Point(1); p.Y != 0 || p.X[0] != 3 {
		t.Errorf("Point(1) = %+v", p)
	}
	if got := len(ds.Points()); got != 2 {
		t.Errorf("Points() length = %d", got)
	}
}

func TestSubset(t *testing.T) {
	ds := mustDataset(t, []Point{{X: []float64{1}}, {X: []float64{2}}, {X: []float64{3}}})
	sub, err := ds.Subset([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Point(0).X[0] != 3 || sub.Point(1).X[0] != 1 {
		t.Errorf("Subset contents wrong: %+v", sub.Points())
	}
	if _, err := ds.Subset(nil); err == nil {
		t.Error("empty subset did not error")
	}
	if _, err := ds.Subset([]int{5}); err == nil {
		t.Error("out-of-range subset did not error")
	}
}

func TestSplit(t *testing.T) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{X: []float64{float64(i)}}
	}
	ds := mustDataset(t, pts)
	train, test, err := ds.Split(80, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
	}
	// The union of the two splits must cover every point exactly once.
	seen := make(map[float64]bool, 100)
	for _, p := range append(append([]Point{}, train.Points()...), test.Points()...) {
		if seen[p.X[0]] {
			t.Fatalf("point %v appears twice across splits", p.X[0])
		}
		seen[p.X[0]] = true
	}
	if len(seen) != 100 {
		t.Fatalf("splits cover %d points, want 100", len(seen))
	}
}

func TestSplitDeterminism(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{X: []float64{float64(i)}}
	}
	ds := mustDataset(t, pts)
	a1, _, err := ds.Split(25, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := ds.Split(25, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if a1.Point(i).X[0] != a2.Point(i).X[0] {
			t.Fatal("Split is not deterministic for equal seeds")
		}
	}
}

func TestSplitValidation(t *testing.T) {
	ds := mustDataset(t, []Point{{X: []float64{1}}, {X: []float64{2}}})
	if _, _, err := ds.Split(0, randx.New(1)); err == nil {
		t.Error("Split(0) did not error")
	}
	if _, _, err := ds.Split(2, randx.New(1)); err == nil {
		t.Error("Split(n) did not error")
	}
}

func TestBatcher(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{X: []float64{float64(i)}}
	}
	ds := mustDataset(t, pts)
	b, err := NewBatcher(ds, 4, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.idx) != 4 {
		t.Fatalf("BatchSize = %d", len(b.idx))
	}
	batch := b.Next()
	if len(batch) != 4 {
		t.Fatalf("batch size = %d", len(batch))
	}
	seen := map[float64]bool{}
	for _, p := range batch {
		if seen[p.X[0]] {
			t.Fatal("batch contains duplicate point")
		}
		seen[p.X[0]] = true
	}
}

func TestBatcherCapsBatchSize(t *testing.T) {
	ds := mustDataset(t, []Point{{X: []float64{1}}, {X: []float64{2}}})
	b, err := NewBatcher(ds, 10, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.idx) != 2 {
		t.Errorf("BatchSize = %d, want capped 2", len(b.idx))
	}
}

func TestBatcherValidation(t *testing.T) {
	ds := mustDataset(t, []Point{{X: []float64{1}}})
	if _, err := NewBatcher(ds, 0, randx.New(1)); err == nil {
		t.Error("zero batch size did not error")
	}
	if _, err := NewBatcher(nil, 1, randx.New(1)); err == nil {
		t.Error("nil dataset did not error")
	}
}

func TestParseLIBSVM(t *testing.T) {
	src := `1 1:0.5 3:-1
0 2:1
# comment line

-1 1:0.25 2:0.75 3:1
`
	ds, err := ParseLIBSVM(strings.NewReader(src), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.Dim() != 3 {
		t.Fatalf("parsed %d points dim %d", ds.Len(), ds.Dim())
	}
	p0 := ds.Point(0)
	if p0.Y != 1 || p0.X[0] != 0.5 || p0.X[1] != 0 || p0.X[2] != -1 {
		t.Errorf("point 0 = %+v", p0)
	}
	if ds.Point(1).Y != 0 {
		t.Errorf("label 0 parsed as %v", ds.Point(1).Y)
	}
	if ds.Point(2).Y != 0 {
		t.Errorf("label -1 should map to 0, got %v", ds.Point(2).Y)
	}
}

func TestParseLIBSVMErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		dim  int
	}{
		{name: "bad label", src: "x 1:1\n", dim: 2},
		{name: "malformed feature", src: "1 11\n", dim: 2},
		{name: "bad index", src: "1 a:1\n", dim: 2},
		{name: "index out of range", src: "1 3:1\n", dim: 2},
		{name: "bad value", src: "1 1:z\n", dim: 2},
		{name: "non-positive dim", src: "1 1:1\n", dim: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseLIBSVM(strings.NewReader(tt.src), tt.dim); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSyntheticPhishingShapeAndDeterminism(t *testing.T) {
	ds, err := SyntheticPhishing(SyntheticPhishingConfig{N: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Dim() != PhishingFeatures {
		t.Fatalf("shape = %d x %d", ds.Len(), ds.Dim())
	}
	ones := 0
	for _, p := range ds.Points() {
		if p.Y != 0 && p.Y != 1 {
			t.Fatalf("non-binary label %v", p.Y)
		}
		if p.Y == 1 {
			ones++
		}
		for _, x := range p.X {
			if x < -1 || x > 1 {
				t.Fatalf("feature %v outside [-1, 1]", x)
			}
		}
	}
	if ones < 100 || ones > 400 {
		t.Errorf("class balance suspicious: %d/500 positives", ones)
	}
	ds2, err := SyntheticPhishing(SyntheticPhishingConfig{N: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Points() {
		if ds.Point(i).Y != ds2.Point(i).Y || ds.Point(i).X[0] != ds2.Point(i).X[0] {
			t.Fatal("SyntheticPhishing is not deterministic")
		}
	}
}

func TestSyntheticPhishingDefaults(t *testing.T) {
	ds, err := SyntheticPhishing(SyntheticPhishingConfig{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim() != PhishingFeatures {
		t.Errorf("default dim = %d", ds.Dim())
	}
	if _, err := SyntheticPhishing(SyntheticPhishingConfig{N: -1}); err == nil {
		t.Error("negative N did not error")
	}
}

func TestGaussianMean(t *testing.T) {
	ds, center, err := GaussianMean(GaussianMeanConfig{N: 2000, Dim: 10, Sigma: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2000 || len(center) != 10 {
		t.Fatalf("shape = %d, center %d", ds.Len(), len(center))
	}
	// Empirical mean must approach the declared center.
	mean := make([]float64, 10)
	for _, p := range ds.Points() {
		for j, x := range p.X {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] /= 2000
		if diff := mean[j] - center[j]; diff > 0.05 || diff < -0.05 {
			t.Errorf("coord %d empirical mean off by %v", j, diff)
		}
	}
}

func TestGaussianMeanExplicitCenter(t *testing.T) {
	c := []float64{1, -1}
	_, gotCenter, err := GaussianMean(GaussianMeanConfig{N: 10, Dim: 2, Sigma: 0.1, Center: c, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gotCenter[0] != 1 || gotCenter[1] != -1 {
		t.Errorf("center = %v", gotCenter)
	}
	if _, _, err := GaussianMean(GaussianMeanConfig{N: 10, Dim: 3, Sigma: 1, Center: c}); err == nil {
		t.Error("center dim mismatch did not error")
	}
	if _, _, err := GaussianMean(GaussianMeanConfig{N: 0, Dim: 3, Sigma: 1}); err == nil {
		t.Error("invalid config did not error")
	}
}

func TestTwoGaussians(t *testing.T) {
	ds, err := TwoGaussians(TwoGaussiansConfig{N: 200, Dim: 3, Separation: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// With separation 6 the first coordinate should almost perfectly
	// predict the class.
	correct := 0
	for _, p := range ds.Points() {
		pred := 0.0
		if p.X[0] > 0 {
			pred = 1
		}
		if pred == p.Y {
			correct++
		}
	}
	if correct < 190 {
		t.Errorf("only %d/200 separable; generator is wrong", correct)
	}
	if _, err := TwoGaussians(TwoGaussiansConfig{N: 1, Dim: 1}); err == nil {
		t.Error("invalid config did not error")
	}
}
