package model

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dpbyz/internal/data"
)

// modelGoldens pins the FNV-64a hash of the bits of Loss and of
// ClippedGradientWithNorms for every registered model, per model × feature
// width, over batch sizes 1, 2, 3, 5, 10 and 50, clip 0 and 1e-2, with cached
// and with nil feature norms; the "mixed" keys cover one batch whose rows
// differ in width. The constants were printed by this test at commit d80471b
// (the parent of the two-row score kernel) and must not be edited by a
// kernel change.
var modelGoldens = map[string]uint64{
	"linear-regression/mixed":      0x0d6c18b9db65a724,
	"linear-regression/width=1":    0xcbc0720af6e4928a,
	"linear-regression/width=1000": 0x4e9379456f28c140,
	"linear-regression/width=3":    0xa82046891b5286f8,
	"linear-regression/width=4":    0x3b3aa162ba5e33a0,
	"linear-regression/width=5":    0xcbbe780ecd597129,
	"linear-regression/width=68":   0xa132b3b76b685110,
	"logistic-mse/mixed":           0x042409f2ebc900a7,
	"logistic-mse/width=1":         0xa95e8f0e05be4363,
	"logistic-mse/width=1000":      0x8d20d3a371f4ce6f,
	"logistic-mse/width=3":         0xe57f1f985262127d,
	"logistic-mse/width=4":         0x83e2164488ed749d,
	"logistic-mse/width=5":         0x982215d59ccc07d5,
	"logistic-mse/width=68":        0xc82a0d816e79d3cf,
	"logistic-nll/mixed":           0x2bfeff814b77d41b,
	"logistic-nll/width=1":         0x3106dda49fc9022b,
	"logistic-nll/width=1000":      0xbec4d0ea10fc7ef6,
	"logistic-nll/width=3":         0x7615a0a9eb8c5882,
	"logistic-nll/width=4":         0xd93d694c7eb7ccef,
	"logistic-nll/width=5":         0xa7c287cd43fe8d4f,
	"logistic-nll/width=68":        0x155cef597bd08950,
	"mean-estimation/width=1":      0x83fd12a54e0d198a,
	"mean-estimation/width=1000":   0x7bdb953ba4c62a9b,
	"mean-estimation/width=3":      0xb8febce6fdf33603,
	"mean-estimation/width=4":      0xb30093558b963aac,
	"mean-estimation/width=5":      0xdcc282ba387fd449,
	"mean-estimation/width=68":     0x30c14be4e25a99cd,
	"mlp/mixed":                    0x3fac423de10e5d50,
	"mlp/width=1":                  0xacdf4a98fefe928d,
	"mlp/width=1000":               0x2df2893377603739,
	"mlp/width=3":                  0x5e5e827e02d54476,
	"mlp/width=4":                  0x603e2fd81b7695ca,
	"mlp/width=5":                  0x661f13d840340c92,
	"mlp/width=68":                 0x3ae3256a4cf924ce,
}

// goldenModels builds the five registered models over the given width.
func goldenModels(t *testing.T, features int) []Model {
	t.Helper()
	var ms []Model
	for _, build := range []func() (Model, error){
		func() (Model, error) { return NewLogisticMSE(features) },
		func() (Model, error) { return NewLogisticNLL(features) },
		func() (Model, error) { return NewLinearRegression(features) },
		func() (Model, error) { return NewMeanEstimation(features) },
		func() (Model, error) { return NewMLP(features, 5) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// goldenParams returns parameters scaled so that scores stay away from
// sigmoid saturation at every width.
func goldenParams(m Model, seed int64) []float64 {
	w := randomParams(m.Dim(), seed)
	s := 1 / math.Sqrt(float64(m.Features()))
	for i := range w {
		w[i] = s * (w[i] - 0.5)
	}
	return w
}

// hashBatch folds Loss and the four clip × norms gradients of one batch
// into h.
func hashBatch(h hash.Hash64, m Model, w []float64, batch []data.Point, xSq []float64) {
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	put(m.Loss(w, batch))
	d := m.Dim()
	for _, clip := range []float64{0, 1e-2} {
		for _, norms := range [][]float64{xSq, nil} {
			for _, x := range ClippedGradientWithNorms(m, make([]float64, d), make([]float64, d), w, batch, norms, clip) {
				put(x)
			}
		}
	}
}

// TestModelGoldens pins the model layer's output bits, the per-sample
// scores under them included. amd64-only, like worker.TestStepGoldens: the
// compiler fuses multiply-adds elsewhere, so float results are
// per-architecture. Within amd64 they hold on CPUs with AVX and FMA only:
// sigmoid calls math.Exp, whose amd64 body takes an FMA branch there
// (math/exp_amd64.go, useFMA) and rounds differently without it (ROADMAP
// rule (iv)).
func TestModelGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	check := func(key string, h hash.Hash64) {
		if got, want := h.Sum64(), modelGoldens[key]; got != want {
			t.Errorf("golden moved:\n\t%q: %#016x, // pinned %#016x", key, got, want)
		}
	}
	for _, width := range []int{1, 3, 4, 5, 68, 1000} {
		for _, m := range goldenModels(t, width) {
			h := fnv.New64a()
			w := goldenParams(m, int64(width))
			for _, n := range []int{1, 2, 3, 5, 10, 50} {
				batch, xSq := batchTask(t, width, n, int64(width*100+n))
				hashBatch(h, m, w, batch, xSq)
			}
			check(fmt.Sprintf("%s/width=%d", m.Name(), width), h)
		}
	}
	// Rows narrower than the model, as the cluster tests feed
	// dimension-confused workers, in pairs that agree (rows 4 and 5) and
	// pairs that do not (rows 2 and 3, 6 and 7): the affine models and the MLP
	// range over each row's own width. Mean estimation needs every row at
	// full width.
	const width = 68
	batch, _ := batchTask(t, width, 10, 9)
	xSq := make([]float64, len(batch))
	for i := range batch {
		switch i {
		case 2, 7:
			batch[i].X = batch[i].X[:width-1]
		case 4, 5:
			batch[i].X = batch[i].X[:width-4]
		}
		for _, x := range batch[i].X {
			xSq[i] += x * x
		}
	}
	for _, m := range goldenModels(t, width) {
		if _, ok := m.(*MeanEstimation); ok {
			continue
		}
		h := fnv.New64a()
		hashBatch(h, m, goldenParams(m, 3), batch, xSq)
		check(fmt.Sprintf("%s/mixed", m.Name()), h)
	}
}
