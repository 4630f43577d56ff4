// Package model defines the learning tasks of the reproduction: the paper's
// logistic-regression-with-MSE-loss model (§5.1), auxiliary convex models
// (linear regression, logistic NLL, the mean-estimation objective behind
// Theorem 1's lower bound), and a small MLP to exercise the non-convex
// regime of §3.
//
// All models expose the parameter vector w as a flat []float64 of length
// Dim(), so the rest of the stack (DP noise, GARs, attacks) is model
// agnostic, exactly as in the paper where everything operates on gradient
// vectors in R^d.
package model

import (
	"errors"
	"math"

	"dpbyz/internal/data"
	"dpbyz/internal/vecmath"
)

// Model is a differentiable learning task. Implementations must be
// stateless: all methods are pure functions of (w, batch), making them safe
// for concurrent use by many workers.
type Model interface {
	// Name identifies the model in logs and experiment records.
	Name() string
	// Dim returns the number of parameters d.
	Dim() int
	// Features returns the input feature dimension the model expects.
	Features() int
	// Loss returns the average loss of parameters w over the batch.
	Loss(w []float64, batch []data.Point) float64
	// Gradient writes the average gradient of the loss at w over the batch
	// into dst (length Dim()) and returns dst.
	Gradient(dst, w []float64, batch []data.Point) []float64
}

// Predictor is implemented by classification models that can score a point.
type Predictor interface {
	// Predict returns the model's probability that x has label 1.
	Predict(w []float64, x []float64) float64
}

// ErrBadDimension is returned by constructors given non-positive dimensions.
var ErrBadDimension = errors.New("model: non-positive dimension")

// evalGrain is the fixed number of points per evaluation chunk used by
// Accuracy and DatasetLoss. The chunk boundaries depend only on the dataset
// size — never on GOMAXPROCS or on how many chunks run at once — so the
// returned values are identical no matter how many cores execute the chunks.
const evalGrain = 1024

// evalChunks runs body(chunk) for every grain-sized chunk of n points of
// dimension d, fanning the chunks out when vecmath.ChunkWorkers says the
// n·d scan is worth it. Each chunk index is processed exactly once.
func evalChunks(n, d int, body func(c, lo, hi int)) {
	chunks := (n + evalGrain - 1) / evalGrain
	runRange := func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			lo := c * evalGrain
			hi := lo + evalGrain
			if hi > n {
				hi = n
			}
			body(c, lo, hi)
		}
	}
	if w := min(vecmath.ChunkWorkers(n*d), chunks); w > 1 {
		vecmath.RunChunked(chunks, w, runRange)
		return
	}
	runRange(0, chunks)
}

// Accuracy returns the fraction of points in ds whose thresholded prediction
// (at 0.5) matches the label. It returns 0 for an empty dataset. The scan is
// parallelized over fixed-size chunks of the dataset; the count is an exact
// integer, so the result does not depend on the degree of parallelism.
func Accuracy(m Predictor, w []float64, ds *data.Dataset) float64 {
	if ds == nil || ds.Len() == 0 {
		return 0
	}
	pts := ds.Points()
	n := len(pts)
	if n <= evalGrain {
		return float64(accuracyRange(m, w, pts)) / float64(n)
	}
	counts := make([]int, (n+evalGrain-1)/evalGrain)
	evalChunks(n, len(w), func(c, lo, hi int) {
		counts[c] = accuracyRange(m, w, pts[lo:hi])
	})
	correct := 0
	for _, c := range counts {
		correct += c
	}
	return float64(correct) / float64(n)
}

// accuracyRange counts correct thresholded predictions over pts.
func accuracyRange(m Predictor, w []float64, pts []data.Point) int {
	correct := 0
	for _, p := range pts {
		pred := 0.0
		if m.Predict(w, p.X) >= 0.5 {
			pred = 1
		}
		if pred == p.Y {
			correct++
		}
	}
	return correct
}

// DatasetLoss returns the average loss of w over the full dataset, computed
// as a fixed-grain chunked sum: chunk sums are produced independently (and
// concurrently when cores are available) and reduced in chunk order, so the
// value is identical at every parallelism level — though, beyond one grain,
// not bit-identical to a single flat Loss scan.
func DatasetLoss(m Model, w []float64, ds *data.Dataset) float64 {
	if ds == nil || ds.Len() == 0 {
		return 0
	}
	pts := ds.Points()
	n := len(pts)
	if n <= evalGrain {
		return m.Loss(w, pts)
	}
	sums := make([]float64, (n+evalGrain-1)/evalGrain)
	evalChunks(n, len(w), func(c, lo, hi int) {
		sums[c] = m.Loss(w, pts[lo:hi]) * float64(hi-lo)
	})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total / float64(n)
}

// affine returns w·x + bias where the bias is the last parameter; the
// feature dimension is len(w)-1. It scores one point for Predict; the Loss
// loops score their batch two rows per sweep over w with pairDots (through
// scoreRows in LogisticMSE.Loss and affineBatch), which is bit-identical to
// one DotBlocked call per row. Like the historical scalar loop, both range
// over x, tolerating a w that carries more features than the point (the
// cluster tests exercise dimension-confused workers that way).
func affine(w []float64, x []float64) float64 {
	return w[len(w)-1] + vecmath.DotBlocked(w[:len(x)], x)
}

// LogisticMSE is the paper's model: a logistic regressor trained with the
// mean-square error loss (§5.1), d = features + 1 parameters (bias last).
type LogisticMSE struct {
	features int
}

var (
	_ Model     = (*LogisticMSE)(nil)
	_ Predictor = (*LogisticMSE)(nil)
)

// NewLogisticMSE returns the paper's logistic-MSE model over the given
// feature count.
func NewLogisticMSE(features int) (*LogisticMSE, error) {
	if features <= 0 {
		return nil, ErrBadDimension
	}
	return &LogisticMSE{features: features}, nil
}

// Name implements Model.
func (m *LogisticMSE) Name() string { return "logistic-mse" }

// Dim implements Model.
func (m *LogisticMSE) Dim() int { return m.features + 1 }

// Features implements Model.
func (m *LogisticMSE) Features() int { return m.features }

// Predict implements Predictor.
func (m *LogisticMSE) Predict(w []float64, x []float64) float64 {
	return vecmath.Sigmoid(affine(w, x))
}

// Loss implements Model: mean over the batch of (sigmoid(w·x+b) − y)². The
// batch is scored linkBlock rows at a time and each block goes through the
// link at once; the squares are summed in sample order.
func (m *LogisticMSE) Loss(w []float64, batch []data.Point) float64 {
	var s float64
	var ps [linkBlock]float64
	for lo := 0; lo < len(batch); lo += linkBlock {
		rows := batch[lo:min(lo+linkBlock, len(batch))]
		p := ps[:len(rows)]
		scoreRows(p, w, rows)
		vecmath.SigmoidInPlace(p)
		for k, pk := range p {
			d := pk - rows[k].Y
			s += d * d
		}
	}
	return s / float64(len(batch))
}

// Gradient implements Model. dLoss/dz = 2(p − y)·p·(1 − p).
func (m *LogisticMSE) Gradient(dst, w []float64, batch []data.Point) []float64 {
	return affineBatch(dst, w, batch, nil, 0, true, dlossLogisticMSE)
}

// LogisticNLL is standard logistic regression with the cross-entropy loss,
// included as a second convex task.
type LogisticNLL struct {
	features int
}

var (
	_ Model     = (*LogisticNLL)(nil)
	_ Predictor = (*LogisticNLL)(nil)
)

// NewLogisticNLL returns a cross-entropy logistic model.
func NewLogisticNLL(features int) (*LogisticNLL, error) {
	if features <= 0 {
		return nil, ErrBadDimension
	}
	return &LogisticNLL{features: features}, nil
}

// Name implements Model.
func (m *LogisticNLL) Name() string { return "logistic-nll" }

// Dim implements Model.
func (m *LogisticNLL) Dim() int { return m.features + 1 }

// Features implements Model.
func (m *LogisticNLL) Features() int { return m.features }

// Predict implements Predictor.
func (m *LogisticNLL) Predict(w []float64, x []float64) float64 {
	return vecmath.Sigmoid(affine(w, x))
}

// Loss implements Model: mean binary cross-entropy, computed in the stable
// log-sum-exp form.
func (m *LogisticNLL) Loss(w []float64, batch []data.Point) float64 {
	var s float64
	var zs [2]float64
	for i, p := range batch {
		if i%2 == 0 {
			zs[0], zs[1] = pairDots(w, batch, i)
		}
		z := w[len(w)-1] + zs[i%2]
		// log(1+e^z) − y·z, stable for both signs of z.
		s += math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z))) - p.Y*z
	}
	return s / float64(len(batch))
}

// Gradient implements Model: mean over the batch of (sigmoid(z) − y)·x.
func (m *LogisticNLL) Gradient(dst, w []float64, batch []data.Point) []float64 {
	return affineBatch(dst, w, batch, nil, 0, true, dlossLogisticNLL)
}

// LinearRegression is ordinary least squares with MSE loss, the simplest
// strongly convex task.
type LinearRegression struct {
	features int
}

var _ Model = (*LinearRegression)(nil)

// NewLinearRegression returns an OLS model.
func NewLinearRegression(features int) (*LinearRegression, error) {
	if features <= 0 {
		return nil, ErrBadDimension
	}
	return &LinearRegression{features: features}, nil
}

// Name implements Model.
func (m *LinearRegression) Name() string { return "linear-regression" }

// Dim implements Model.
func (m *LinearRegression) Dim() int { return m.features + 1 }

// Features implements Model.
func (m *LinearRegression) Features() int { return m.features }

// Loss implements Model: mean of (w·x + b − y)².
func (m *LinearRegression) Loss(w []float64, batch []data.Point) float64 {
	var s float64
	var zs [2]float64
	for i, p := range batch {
		if i%2 == 0 {
			zs[0], zs[1] = pairDots(w, batch, i)
		}
		d := w[len(w)-1] + zs[i%2] - p.Y
		s += d * d
	}
	return s / float64(len(batch))
}

// Gradient implements Model.
func (m *LinearRegression) Gradient(dst, w []float64, batch []data.Point) []float64 {
	return affineBatch(dst, w, batch, nil, 0, false, dlossLinearRegression)
}

// MeanEstimation is Theorem 1's lower-bound objective
// Q(w) = ½ E‖w − x‖² with x ~ N(x̄, σ²/d I): strongly convex with λ = μ = 1,
// minimized at w* = x̄. Its stochastic gradient on a batch is the average of
// (w − x) over the batch.
type MeanEstimation struct {
	dim int
}

var _ Model = (*MeanEstimation)(nil)

// NewMeanEstimation returns the mean-estimation objective in dimension d.
func NewMeanEstimation(dim int) (*MeanEstimation, error) {
	if dim <= 0 {
		return nil, ErrBadDimension
	}
	return &MeanEstimation{dim: dim}, nil
}

// Name implements Model.
func (m *MeanEstimation) Name() string { return "mean-estimation" }

// Dim implements Model.
func (m *MeanEstimation) Dim() int { return m.dim }

// Features implements Model.
func (m *MeanEstimation) Features() int { return m.dim }

// Loss implements Model: ½ mean ‖w − x‖² over the batch.
func (m *MeanEstimation) Loss(w []float64, batch []data.Point) float64 {
	var s float64
	for _, p := range batch {
		for j, xj := range p.X {
			d := w[j] - xj
			s += d * d
		}
	}
	return s / (2 * float64(len(batch)))
}

// Gradient implements Model: mean of (w − x) over the batch, accumulated
// four samples per sweep (x-major, cache-friendly — the historical kernel
// walked the batch once per coordinate).
func (m *MeanEstimation) Gradient(dst, w []float64, batch []data.Point) []float64 {
	for j := range dst {
		dst[j] = 0
	}
	i := 0
	for ; i+4 <= len(batch); i += 4 {
		vecmath.Axpy4(dst, 1, batch[i].X, 1, batch[i+1].X, 1, batch[i+2].X, 1, batch[i+3].X)
	}
	for ; i < len(batch); i++ {
		vecmath.Axpy(1, batch[i].X, dst)
	}
	inv := 1 / float64(len(batch))
	for j := range dst {
		dst[j] = w[j] - dst[j]*inv
	}
	return dst
}

// Suboptimality returns Q(w) − Q* for the mean-estimation objective, which
// equals ½‖w − center‖² (derivation in the paper's Theorem 1 proof).
func (m *MeanEstimation) Suboptimality(w, center []float64) float64 {
	var s float64
	for j := range w {
		d := w[j] - center[j]
		s += d * d
	}
	return s / 2
}
