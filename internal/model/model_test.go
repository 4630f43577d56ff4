package model

import (
	"math"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/randx"
)

// numericalGradient approximates the gradient of m.Loss by central
// differences, the ground truth for checking analytic gradients.
func numericalGradient(m Model, w []float64, batch []data.Point) []float64 {
	const eps = 1e-6
	g := make([]float64, len(w))
	wp := make([]float64, len(w))
	for i := range w {
		copy(wp, w)
		wp[i] = w[i] + eps
		up := m.Loss(wp, batch)
		wp[i] = w[i] - eps
		down := m.Loss(wp, batch)
		g[i] = (up - down) / (2 * eps)
	}
	return g
}

func randomBatch(t *testing.T, features, n int, seed uint64) []data.Point {
	t.Helper()
	rng := randx.New(seed)
	pts := make([]data.Point, n)
	for i := range pts {
		x := make([]float64, features)
		rng.NormalVec(x, 1)
		pts[i] = data.Point{X: x, Y: float64(i % 2)}
	}
	return pts
}

func checkGradient(t *testing.T, m Model, w []float64, batch []data.Point, tol float64) {
	t.Helper()
	got := m.Gradient(make([]float64, m.Dim()), w, batch)
	want := numericalGradient(m, w, batch)
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("grad[%d] = %v, numeric %v", i, got[i], want[i])
		}
	}
}

func TestLogisticMSEGradientMatchesNumeric(t *testing.T) {
	m, err := NewLogisticMSE(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(1)
	w := rng.NormalVec(make([]float64, m.Dim()), 0.5)
	checkGradient(t, m, w, randomBatch(t, 5, 8, 2), 1e-6)
}

func TestLogisticNLLGradientMatchesNumeric(t *testing.T) {
	m, err := NewLogisticNLL(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	w := rng.NormalVec(make([]float64, m.Dim()), 0.5)
	checkGradient(t, m, w, randomBatch(t, 4, 8, 4), 1e-6)
}

func TestLinearRegressionGradientMatchesNumeric(t *testing.T) {
	m, err := NewLinearRegression(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	w := rng.NormalVec(make([]float64, m.Dim()), 1)
	checkGradient(t, m, w, randomBatch(t, 3, 6, 6), 1e-5)
}

func TestMeanEstimationGradientMatchesNumeric(t *testing.T) {
	m, err := NewMeanEstimation(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(7)
	w := rng.NormalVec(make([]float64, 6), 1)
	batch := make([]data.Point, 5)
	for i := range batch {
		batch[i] = data.Point{X: rng.NormalVec(make([]float64, 6), 1)}
	}
	checkGradient(t, m, w, batch, 1e-5)
}

func TestMLPGradientMatchesNumeric(t *testing.T) {
	m, err := NewMLP(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	w := m.InitParams(rng.Normal)
	checkGradient(t, m, w, randomBatch(t, 3, 5, 10), 1e-5)
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewLogisticMSE(0); err == nil {
		t.Error("LogisticMSE(0) did not error")
	}
	if _, err := NewLogisticNLL(-1); err == nil {
		t.Error("LogisticNLL(-1) did not error")
	}
	if _, err := NewLinearRegression(0); err == nil {
		t.Error("LinearRegression(0) did not error")
	}
	if _, err := NewMeanEstimation(0); err == nil {
		t.Error("MeanEstimation(0) did not error")
	}
	if _, err := NewMLP(0, 3); err == nil {
		t.Error("MLP(0, 3) did not error")
	}
	if _, err := NewMLP(3, 0); err == nil {
		t.Error("MLP(3, 0) did not error")
	}
}

func TestDims(t *testing.T) {
	lm, _ := NewLogisticMSE(68)
	if lm.Dim() != 69 {
		t.Errorf("paper model dim = %d, want 69", lm.Dim())
	}
	mlp, _ := NewMLP(10, 5)
	if mlp.Dim() != 5*12+1 {
		t.Errorf("MLP dim = %d, want %d", mlp.Dim(), 5*12+1)
	}
}

func TestNames(t *testing.T) {
	lm, _ := NewLogisticMSE(2)
	ln, _ := NewLogisticNLL(2)
	lr, _ := NewLinearRegression(2)
	me, _ := NewMeanEstimation(2)
	mlp, _ := NewMLP(2, 2)
	names := map[string]bool{}
	for _, m := range []Model{lm, ln, lr, me, mlp} {
		if m.Name() == "" {
			t.Error("empty model name")
		}
		if names[m.Name()] {
			t.Errorf("duplicate model name %q", m.Name())
		}
		names[m.Name()] = true
	}
}

func TestAccuracyPerfectSeparation(t *testing.T) {
	m, _ := NewLogisticMSE(1)
	ds, err := data.New([]data.Point{
		{X: []float64{-2}, Y: 0},
		{X: []float64{2}, Y: 1},
		{X: []float64{-1}, Y: 0},
		{X: []float64{1}, Y: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// w = [10, 0]: sign of x decides the class.
	if got := Accuracy(m, []float64{10, 0}, ds); got != 1 {
		t.Errorf("Accuracy = %v, want 1", got)
	}
	// Inverted separator gets everything wrong.
	if got := Accuracy(m, []float64{-10, 0}, ds); got != 0 {
		t.Errorf("Accuracy = %v, want 0", got)
	}
	if got := Accuracy(m, []float64{10, 0}, nil); got != 0 {
		t.Errorf("Accuracy(nil) = %v", got)
	}
}

func TestDatasetLoss(t *testing.T) {
	m, _ := NewMeanEstimation(2)
	ds, err := data.New([]data.Point{{X: []float64{1, 0}}, {X: []float64{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// At w = 0: ½·mean(1, 1) = 0.5.
	if got := DatasetLoss(m, []float64{0, 0}, ds); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DatasetLoss = %v, want 0.5", got)
	}
	if got := DatasetLoss(m, []float64{0, 0}, nil); got != 0 {
		t.Errorf("DatasetLoss(nil) = %v", got)
	}
}

func TestMeanEstimationSuboptimality(t *testing.T) {
	m, _ := NewMeanEstimation(2)
	got := m.Suboptimality([]float64{3, 4}, []float64{0, 0})
	if got != 12.5 {
		t.Errorf("Suboptimality = %v, want 12.5", got)
	}
}

// Gradient descent on each convex model must reduce the loss: an end-to-end
// correctness check of the loss/gradient pair.
func TestGradientDescentReducesLoss(t *testing.T) {
	ds, err := data.TwoGaussians(data.TwoGaussiansConfig{N: 200, Dim: 4, Separation: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := NewLogisticMSE(4)
	ln, _ := NewLogisticNLL(4)
	lr, _ := NewLinearRegression(4)
	for _, m := range []Model{lm, ln, lr} {
		t.Run(m.Name(), func(t *testing.T) {
			w := make([]float64, m.Dim())
			g := make([]float64, m.Dim())
			before := m.Loss(w, ds.Points())
			for step := 0; step < 200; step++ {
				m.Gradient(g, w, ds.Points())
				for i := range w {
					w[i] -= 0.1 * g[i]
				}
			}
			after := m.Loss(w, ds.Points())
			if after >= before {
				t.Errorf("loss did not decrease: %v -> %v", before, after)
			}
		})
	}
}

func TestMLPLearnsXORLikeTask(t *testing.T) {
	// A task a linear model cannot solve: y = 1 iff x0*x1 > 0.
	rng := randx.New(13)
	pts := make([]data.Point, 400)
	for i := range pts {
		x := []float64{rng.Normal(), rng.Normal()}
		y := 0.0
		if x[0]*x[1] > 0 {
			y = 1
		}
		pts[i] = data.Point{X: x, Y: y}
	}
	ds, err := data.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMLP(2, 8)
	w := m.InitParams(rng.Normal)
	g := make([]float64, m.Dim())
	for step := 0; step < 3000; step++ {
		m.Gradient(g, w, ds.Points())
		for i := range w {
			w[i] -= 1.0 * g[i]
		}
	}
	if acc := Accuracy(m, w, ds); acc < 0.9 {
		t.Errorf("MLP accuracy on XOR-like task = %v, want >= 0.9", acc)
	}
}

func TestMLPInitParamsDeterministic(t *testing.T) {
	m, _ := NewMLP(3, 2)
	a := m.InitParams(randx.New(1).Normal)
	b := m.InitParams(randx.New(1).Normal)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams not deterministic")
		}
	}
}
