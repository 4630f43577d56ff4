package model

import (
	"math"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/vecmath"
)

// batchTask builds a deterministic batch plus matching ‖x‖² cache.
func batchTask(t testing.TB, features, n int, seed int64) ([]data.Point, []float64) {
	t.Helper()
	batch := make([]data.Point, n)
	xSq := make([]float64, n)
	s := uint64(seed)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>11))/(1<<52) - 1
	}
	for i := range batch {
		x := make([]float64, features)
		var sq float64
		for j := range x {
			x[j] = next()
			sq += x[j] * x[j]
		}
		y := 0.0
		if next() > 0 {
			y = 1
		}
		batch[i] = data.Point{X: x, Y: y}
		xSq[i] = sq
	}
	return batch, xSq
}

func randomParams(d int, seed int64) []float64 {
	w := make([]float64, d)
	s := uint64(seed)
	for i := range w {
		s = s*6364136223846793005 + 1442695040888963407
		w[i] = float64(int64(s>>11)) / (1 << 52)
	}
	return w
}

// Every model's batched kernel must agree with the per-sample reference
// (single-point Gradient + ClipL2 + accumulate) to rounding, with and
// without the cached feature norms, at biting and generous clip bounds.
func TestClippedBatchGradientMatchesReference(t *testing.T) {
	const features, n = 13, 21
	models := []struct {
		name string
		m    Model
	}{}
	if m, err := NewLogisticMSE(features); err == nil {
		models = append(models, struct {
			name string
			m    Model
		}{"logistic-mse", m})
	}
	if m, err := NewLogisticNLL(features); err == nil {
		models = append(models, struct {
			name string
			m    Model
		}{"logistic-nll", m})
	}
	if m, err := NewLinearRegression(features); err == nil {
		models = append(models, struct {
			name string
			m    Model
		}{"linear", m})
	}
	if m, err := NewMeanEstimation(features); err == nil {
		models = append(models, struct {
			name string
			m    Model
		}{"mean-estimation", m})
	}
	if m, err := NewMLP(features, 5); err == nil {
		models = append(models, struct {
			name string
			m    Model
		}{"mlp", m})
	}
	if len(models) != 5 {
		t.Fatal("model construction failed")
	}

	batch, xSq := batchTask(t, features, n, 7)
	for _, tc := range models {
		d := tc.m.Dim()
		w := randomParams(d, 11)
		for _, clip := range []float64{1e-3, 0.05, 1e9} {
			want := clippedGradientPerSample(tc.m, make([]float64, d), make([]float64, d), w, batch, clip)
			bg := tc.m.(BatchGradienter)
			for _, norms := range [][]float64{nil, xSq} {
				got := bg.ClippedBatchGradient(make([]float64, d), make([]float64, d), w, batch, norms, clip)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
						t.Errorf("%s clip=%v norms=%v: coord %d = %v, want %v",
							tc.name, clip, norms != nil, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// The dispatch in ClippedGradient must route this package's models through
// the batched kernel and still honour the clip <= 0 contract.
func TestClippedGradientDispatch(t *testing.T) {
	m, err := NewLogisticMSE(9)
	if err != nil {
		t.Fatal(err)
	}
	batch, xSq := batchTask(t, 9, 17, 3)
	w := randomParams(m.Dim(), 5)
	plain := m.Gradient(make([]float64, m.Dim()), w, batch)
	viaClip := ClippedGradient(m, make([]float64, m.Dim()), make([]float64, m.Dim()), w, batch, 0)
	for i := range plain {
		if plain[i] != viaClip[i] {
			t.Fatalf("clip=0 did not return the plain gradient at %d", i)
		}
	}
	a := ClippedGradient(m, make([]float64, m.Dim()), make([]float64, m.Dim()), w, batch, 0.01)
	b := ClippedGradientWithNorms(m, make([]float64, m.Dim()), make([]float64, m.Dim()), w, batch, xSq, 0.01)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-13 {
			t.Fatalf("cached-norm path diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The raw affine Gradient shares the blocked kernel; it must match a plain
// scalar-loop reference.
func TestAffineGradientMatchesScalarReference(t *testing.T) {
	const features = 11
	m, err := NewLogisticNLL(features)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := batchTask(t, features, 10, 23)
	w := randomParams(m.Dim(), 29)
	got := m.Gradient(make([]float64, m.Dim()), w, batch)
	want := make([]float64, m.Dim())
	for _, p := range batch {
		z := w[len(w)-1]
		for j, xj := range p.X {
			z += w[j] * xj
		}
		g := vecmath.Sigmoid(z) - p.Y
		for j, xj := range p.X {
			want[j] += g * xj
		}
		want[len(want)-1] += g
	}
	inv := 1 / float64(len(batch))
	for i := range want {
		want[i] *= inv
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("coord %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAffineBatchKeepsRowOrder pins the affine kernels bit for bit, across
// linkBlock boundaries, to a row-by-row loop: each row scored by its own
// DotBlocked and put through Sigmoid, the samples accumulated as one Axpy4
// per quad from the first row and one Axpy per leftover row. Linking a
// whole block at once must not move a bit at any batch size.
func TestAffineBatchKeepsRowOrder(t *testing.T) {
	const features = 7
	mse, _ := NewLogisticMSE(features)
	nll, _ := NewLogisticNLL(features)
	lin, _ := NewLinearRegression(features)
	models := []struct {
		m     BatchGradienter
		link  func(float64) float64
		dloss func(p, y float64) float64
	}{
		{mse, vecmath.Sigmoid, dlossLogisticMSE},
		{nll, vecmath.Sigmoid, dlossLogisticNLL},
		{lin, func(z float64) float64 { return z }, dlossLinearRegression},
	}
	for _, n := range []int{1, 3, 5, linkBlock - 1, linkBlock, linkBlock + 1, linkBlock + 3, 2*linkBlock + 3} {
		batch, xSq := batchTask(t, features, n, int64(n))
		w := randomParams(features+1, 13)
		for _, tc := range models {
			for _, clip := range []float64{0, 0.05} {
				want := make([]float64, features+1)
				gs := make([]float64, n)
				for i, p := range batch {
					z := vecmath.DotBlocked(w[:features], p.X) + w[features]
					gs[i] = affineSampleCoeff(batch, i, tc.link(z), xSq, clip, tc.dloss)
				}
				i := 0
				for ; i+4 <= n; i += 4 {
					for k := range 4 {
						want[features] += gs[i+k]
					}
					vecmath.Axpy4(want, gs[i], batch[i].X, gs[i+1], batch[i+1].X,
						gs[i+2], batch[i+2].X, gs[i+3], batch[i+3].X)
				}
				for ; i < n; i++ {
					vecmath.Axpy(gs[i], batch[i].X, want[:features])
					want[features] += gs[i]
				}
				vecmath.ScaleInPlace(1/float64(n), want)
				got := tc.m.Gradient(make([]float64, features+1), w, batch)
				if clip > 0 {
					got = tc.m.ClippedBatchGradient(make([]float64, features+1), nil, w, batch, xSq, clip)
				}
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s n=%d clip=%v: coord %d = %v, row-by-row %v", tc.m.Name(), n, clip, j, got[j], want[j])
					}
				}
			}
		}
		var s float64
		for _, p := range batch {
			d := vecmath.Sigmoid(vecmath.DotBlocked(w[:features], p.X)+w[features]) - p.Y
			s += d * d
		}
		if got, want := mse.Loss(w, batch), s/float64(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LogisticMSE.Loss n=%d = %v, row-by-row %v", n, got, want)
		}
	}
}

// Accuracy and DatasetLoss must return the same values at every parallelism
// level (the fixed evaluation grain decouples values from core count).
func TestEvalParallelismInvariant(t *testing.T) {
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: 3*evalGrain + 137, Features: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewLogisticMSE(6)
	if err != nil {
		t.Fatal(err)
	}
	w := randomParams(m.Dim(), 41)

	vecmath.SetParallelGrain(1)
	defer vecmath.SetParallelGrain(0)
	var accs, losses []float64
	for _, workers := range []int{1, 2, 7} {
		vecmath.SetParallelism(workers)
		accs = append(accs, Accuracy(m, w, ds))
		losses = append(losses, DatasetLoss(m, w, ds))
	}
	vecmath.SetParallelism(0)
	for i := 1; i < len(accs); i++ {
		if accs[i] != accs[0] {
			t.Errorf("accuracy varies with parallelism: %v vs %v", accs[i], accs[0])
		}
		if losses[i] != losses[0] {
			t.Errorf("loss varies with parallelism: %v vs %v", losses[i], losses[0])
		}
	}
	// Sanity: the chunked loss agrees with a flat scan to rounding.
	flat := m.Loss(w, ds.Points())
	if math.Abs(losses[0]-flat) > 1e-9*(1+math.Abs(flat)) {
		t.Errorf("chunked loss %v far from flat loss %v", losses[0], flat)
	}
}

// BenchmarkAffineBatch times one clipped batch gradient of the paper's
// model with cached feature norms, at the fig2 shape (b = 50, d = 69) and at
// the cluster workloads' wide shape (b = 10, d = 10⁴), where each batch is
// the next ten rows of a 410-row set so that rows are not all cache-hot.
func BenchmarkAffineBatch(b *testing.B) {
	for _, sh := range []struct {
		name            string
		batch, features int
		rows            int
	}{
		{"fig2", 50, 68, 50},
		{"wide", 10, 9999, 410},
	} {
		b.Run(sh.name, func(b *testing.B) {
			m, err := NewLogisticMSE(sh.features)
			if err != nil {
				b.Fatal(err)
			}
			rows, xSq := batchTask(b, sh.features, sh.rows, 1)
			w := randomParams(m.Dim(), 2)
			dst := make([]float64, m.Dim())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * sh.batch % sh.rows
				m.ClippedBatchGradient(dst, nil, w, rows[lo:lo+sh.batch], xSq[lo:lo+sh.batch], 1e-2)
			}
		})
	}
}
