package model

import (
	"math"
	"sync"

	"dpbyz/internal/data"
	"dpbyz/internal/vecmath"
)

// BatchGradienter is the batched fast path of ClippedGradient: a single
// fused sweep over the batch that computes every per-sample gradient, clips
// it to the given L2 norm and accumulates the average into dst, instead of
// materializing one single-point Gradient call per sample. All models in
// this package implement it; ClippedGradient dispatches onto it
// automatically, so callers never need to name the interface.
type BatchGradienter interface {
	Model
	// ClippedBatchGradient writes into dst (length Dim()) the average over
	// the batch of per-sample gradients clipped to L2 norm clip, using buf
	// (length Dim()) as scratch, and returns dst. clip must be positive.
	// xSq, when non-nil, carries ‖X‖² per batch point (data.Batcher serves
	// it from the dataset's construction-time cache), sparing the kernels
	// that price clipping from feature norms a per-sample recomputation;
	// nil means "compute as needed".
	ClippedBatchGradient(dst, buf, w []float64, batch []data.Point, xSq []float64, clip float64) []float64
}

var (
	_ BatchGradienter = (*LogisticMSE)(nil)
	_ BatchGradienter = (*LogisticNLL)(nil)
	_ BatchGradienter = (*LinearRegression)(nil)
	_ BatchGradienter = (*MeanEstimation)(nil)
	_ BatchGradienter = (*MLP)(nil)
)

// dloss* return dLoss/dz of one sample from its link output p (sigmoid(z)
// for the logistic models, z itself for linear regression) and label y; the
// per-sample gradient of an affine model is then g·[x, 1].
func dlossLogisticMSE(p, y float64) float64 { return 2 * (p - y) * p * (1 - p) }

func dlossLogisticNLL(p, y float64) float64 { return p - y }

func dlossLinearRegression(z, y float64) float64 { return 2 * (z - y) }

// linkBlock is how many rows affineBatch and LogisticMSE.Loss score before
// they apply the link to all of them at once (vecmath.SigmoidInPlace, four
// lanes at a time). It is a multiple of 4, so every block but the last
// holds whole pairs and Axpy4 quads, and the sums run in the order of a
// row-by-row loop.
const linkBlock = 64

// pairDots returns the scores w·xᵢ and w·xᵢ₊₁ of batch rows i and i+1, each
// over the row's own width, reading w once when the two rows share a width
// (vecmath.DotBlocked2 is bit-identical to two DotBlocked calls). When i is
// the last row, the second score is 0. Rows of different widths — the
// dimension-confused inputs the cluster tests feed — are scored one at a
// time, so they degrade instead of panicking.
func pairDots(w []float64, batch []data.Point, i int) (float64, float64) {
	x0 := batch[i].X
	if i+1 == len(batch) {
		return vecmath.DotBlocked(w[:len(x0)], x0), 0
	}
	x1 := batch[i+1].X
	if len(x1) != len(x0) {
		return vecmath.DotBlocked(w[:len(x0)], x0), vecmath.DotBlocked(w[:len(x1)], x1)
	}
	return vecmath.DotBlocked2(w[:len(x0)], x0, x1)
}

// scoreRows writes into z (length len(rows)) the score w·x + b of every row,
// the bias b being the last parameter, two rows per pairDots sweep.
func scoreRows(z, w []float64, rows []data.Point) {
	b := w[len(w)-1]
	for i := 0; i < len(rows); i += 2 {
		p, q := pairDots(w, rows, i)
		z[i] = p + b
		if i+1 < len(rows) {
			z[i+1] = q + b
		}
	}
}

// affineSampleCoeff returns the (possibly clipped) per-sample coefficient g
// for batch point i of an affine model whose link output is p: the
// per-sample gradient g·[x, 1] has norm |g|·√(‖x‖²+1), so clipping reduces
// to rescaling the scalar. With clip <= 0 the raw coefficient is returned;
// otherwise ‖x‖² comes from xSq when it is non-nil and from one blocked pass
// over x when it is not.
func affineSampleCoeff(batch []data.Point, i int, p float64, xSq []float64, clip float64,
	dloss func(p, y float64) float64) float64 {
	pt := batch[i]
	g := dloss(p, pt.Y)
	if clip <= 0 || g == 0 {
		return g
	}
	var sq float64
	if xSq != nil {
		sq = xSq[i]
	} else {
		sq = vecmath.DotBlocked(pt.X, pt.X)
	}
	if norm := math.Abs(g) * math.Sqrt(sq+1); norm > clip {
		g *= clip / norm
	}
	return g
}

// affineBatch is the shared batched kernel of the three affine models, for
// both the raw (clip <= 0) and per-sample-clipped (clip > 0) batch
// gradients. It works linkBlock samples at a time: scoreRows scores the
// block, reading w once per pair of rows, and, for the logistic models
// (logistic), vecmath.SigmoidInPlace maps the whole block through the link.
// The samples then go four at a time: the four coefficients, then one fused
// Axpy4 sweep that accumulates them, touching each dst coordinate once per
// quad instead of once per sample. The 1–3 leftover samples of the last
// block are accumulated one by one, in sample order.
func affineBatch(dst, w []float64, batch []data.Point, xSq []float64, clip float64,
	logistic bool, dloss func(p, y float64) float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	f := len(dst) - 1
	var ps [linkBlock]float64
	var gs [4]float64
	for lo := 0; lo < len(batch); lo += linkBlock {
		hi := min(lo+linkBlock, len(batch))
		p := ps[:hi-lo]
		scoreRows(p, w, batch[lo:hi])
		if logistic {
			vecmath.SigmoidInPlace(p)
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			for k := range gs {
				gs[k] = affineSampleCoeff(batch, i+k, p[i-lo+k], xSq, clip, dloss)
				dst[f] += gs[k]
			}
			vecmath.Axpy4(dst, gs[0], batch[i].X, gs[1], batch[i+1].X,
				gs[2], batch[i+2].X, gs[3], batch[i+3].X)
		}
		for ; i < hi; i++ {
			g := affineSampleCoeff(batch, i, p[i-lo], xSq, clip, dloss)
			vecmath.Axpy(g, batch[i].X, dst[:len(batch[i].X)])
			dst[f] += g
		}
	}
	return vecmath.ScaleInPlace(1/float64(len(batch)), dst)
}

// ClippedBatchGradient implements BatchGradienter.
func (m *LogisticMSE) ClippedBatchGradient(dst, _, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	return affineBatch(dst, w, batch, xSq, clip, true, dlossLogisticMSE)
}

// ClippedBatchGradient implements BatchGradienter.
func (m *LogisticNLL) ClippedBatchGradient(dst, _, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	return affineBatch(dst, w, batch, xSq, clip, true, dlossLogisticNLL)
}

// ClippedBatchGradient implements BatchGradienter.
func (m *LinearRegression) ClippedBatchGradient(dst, _, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	return affineBatch(dst, w, batch, xSq, clip, false, dlossLinearRegression)
}

// ClippedBatchGradient implements BatchGradienter. The per-sample gradient
// is w − x with ‖w − x‖² = ‖w‖² − 2·w·x + ‖x‖², so one fused pass per
// sample yields the clip factor s and the update decomposes as
// (Σ s_i)·w − Σ s_i·x_i, touching d coordinates once per sample.
func (m *MeanEstimation) ClippedBatchGradient(dst, _, w []float64, batch []data.Point, xSq []float64, clip float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	wSq := vecmath.SqNorm(w)
	var sSum float64
	var ss [4]float64
	sampleScale := func(i int, dot float64) float64 {
		var sq float64
		if xSq != nil {
			sq = xSq[i]
		} else {
			sq = vecmath.DotBlocked(batch[i].X, batch[i].X)
		}
		normSq := wSq - 2*dot + sq
		if normSq > clip*clip {
			return clip / math.Sqrt(normSq)
		}
		return 1
	}
	i := 0
	for ; i+4 <= len(batch); i += 4 {
		ss[0], ss[1] = pairDots(w, batch, i)
		ss[2], ss[3] = pairDots(w, batch, i+2)
		for k := range ss {
			ss[k] = sampleScale(i+k, ss[k])
			sSum += ss[k]
		}
		vecmath.Axpy4(dst, -ss[0], batch[i].X, -ss[1], batch[i+1].X,
			-ss[2], batch[i+2].X, -ss[3], batch[i+3].X)
	}
	for ; i < len(batch); i++ {
		if i%2 == 0 {
			ss[0], ss[1] = pairDots(w, batch, i)
		}
		s := sampleScale(i, ss[i%2])
		vecmath.Axpy(-s, batch[i].X, dst)
		sSum += s
	}
	vecmath.Axpy(sSum, w, dst)
	return vecmath.ScaleInPlace(1/float64(len(batch)), dst)
}

// ClippedBatchGradient implements BatchGradienter: per-sample
// backpropagation into buf with the squared norm accumulated as
// coefficients are produced, then one scaled accumulation into dst. The
// feature-norm cache is of no use here (the clip prices the full gradient
// norm), so xSq is ignored. The hidden-activation scratch is pooled, so the
// steady state allocates nothing.
func (m *MLP) ClippedBatchGradient(dst, buf, w []float64, batch []data.Point, _ []float64, clip float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	hp := getHidden(m.hidden)
	hBuf := *hp
	for _, p := range batch {
		sq := m.sampleGradient(buf, w, p, hBuf)
		s := 1.0
		if sq > clip*clip {
			s = clip / math.Sqrt(sq)
		}
		vecmath.Axpy(s, buf, dst)
	}
	putHidden(hp)
	return vecmath.ScaleInPlace(1/float64(len(batch)), dst)
}

// hiddenPool recycles MLP hidden-activation scratch so Loss/Predict/
// gradient evaluations allocate nothing on the steady state of a training
// loop (all buffers in one run share the hidden width).
var hiddenPool = sync.Pool{New: func() any { return new([]float64) }}

// getHidden returns a pooled scratch slice of length n.
//
//dpbyz:scratch
func getHidden(n int) *[]float64 {
	p := hiddenPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// putHidden returns a scratch slice to the pool.
func putHidden(p *[]float64) { hiddenPool.Put(p) }
