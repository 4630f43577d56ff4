package model

import (
	"math"

	"dpbyz/internal/data"
	"dpbyz/internal/vecmath"
)

// MLP is a one-hidden-layer perceptron with tanh activations and a sigmoid
// output trained with MSE loss. It exercises the non-convex setting of the
// paper's §3 (the VN-ratio analysis makes no convexity assumption) and the
// "small neural networks (d ≈ 1e5)" regime mentioned in §5. Parameters are
// flattened as [W1 (hidden×features), b1 (hidden), W2 (hidden), b2 (1)].
type MLP struct {
	features int
	hidden   int
}

var (
	_ Model     = (*MLP)(nil)
	_ Predictor = (*MLP)(nil)
)

// NewMLP returns an MLP with the given input and hidden widths.
func NewMLP(features, hidden int) (*MLP, error) {
	if features <= 0 || hidden <= 0 {
		return nil, ErrBadDimension
	}
	return &MLP{features: features, hidden: hidden}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return "mlp" }

// Dim implements Model: hidden*(features+2) + 1 parameters.
func (m *MLP) Dim() int { return m.hidden*(m.features+2) + 1 }

// Features implements Model.
func (m *MLP) Features() int { return m.features }

// unpack returns views of the flat parameter vector: W1 rows, b1, W2, b2.
func (m *MLP) unpack(w []float64) (w1 []float64, b1 []float64, w2 []float64, b2 float64) {
	h, f := m.hidden, m.features
	w1 = w[:h*f]
	b1 = w[h*f : h*f+h]
	w2 = w[h*f+h : h*f+2*h]
	b2 = w[h*f+2*h]
	return w1, b1, w2, b2
}

// forward computes hidden activations into hBuf and returns the output
// probability. Hidden rows are scored two per sweep over x: DotBlocked2(x,
// rowᵢ, rowᵢ₊₁) is bit-identical to DotBlocked(rowᵢ, x) and DotBlocked(rowᵢ₊₁,
// x), since IEEE multiplication commutes.
func (m *MLP) forward(w []float64, x []float64, hBuf []float64) float64 {
	w1, b1, w2, b2 := m.unpack(w)
	f := m.features
	z := b2
	var next float64
	for i := 0; i < m.hidden; i++ {
		row := w1[i*f : (i+1)*f][:len(x)]
		var dot float64
		switch {
		case i%2 == 1:
			dot = next
		case i+1 < m.hidden:
			dot, next = vecmath.DotBlocked2(x, row, w1[(i+1)*f : (i+2)*f][:len(x)])
		default:
			dot = vecmath.DotBlocked(row, x)
		}
		a := b1[i] + dot
		hBuf[i] = math.Tanh(a)
		z += w2[i] * hBuf[i]
	}
	return vecmath.Sigmoid(z)
}

// Predict implements Predictor.
func (m *MLP) Predict(w []float64, x []float64) float64 {
	hp := getHidden(m.hidden)
	out := m.forward(w, x, *hp)
	putHidden(hp)
	return out
}

// Loss implements Model: mean of (out − y)².
func (m *MLP) Loss(w []float64, batch []data.Point) float64 {
	hp := getHidden(m.hidden)
	hBuf := *hp
	var s float64
	for _, p := range batch {
		d := m.forward(w, p.X, hBuf) - p.Y
		s += d * d
	}
	putHidden(hp)
	return s / float64(len(batch))
}

// sampleGradient writes the single-sample gradient at w into buf (length
// Dim(), every entry overwritten) via explicit backpropagation, using hBuf
// (length hidden) as activation scratch, and returns the gradient's squared
// L2 norm, accumulated as the coefficients are produced so clipping needs
// no extra pass.
func (m *MLP) sampleGradient(buf, w []float64, p data.Point, hBuf []float64) float64 {
	h, f := m.hidden, m.features
	_, _, w2, _ := m.unpack(w)
	gw1 := buf[:h*f]
	gb1 := buf[h*f : h*f+h]
	gw2 := buf[h*f+h : h*f+2*h]
	out := m.forward(w, p.X, hBuf)
	// dLoss/dz2 = 2(out − y)·out·(1 − out)
	dz2 := 2 * (out - p.Y) * out * (1 - out)
	buf[h*f+2*h] = dz2 // b2
	sq := dz2 * dz2
	for i := 0; i < h; i++ {
		gv := dz2 * hBuf[i]
		gw2[i] = gv
		sq += gv * gv
		// dLoss/da_i = dz2 · w2_i · (1 − tanh²)
		da := dz2 * w2[i] * (1 - hBuf[i]*hBuf[i])
		gb1[i] = da
		sq += da * da
		row := gw1[i*f : (i+1)*f]
		for j, xj := range p.X {
			rv := da * xj
			row[j] = rv
			sq += rv * rv
		}
		// Points narrower than the model contribute exact zeros to the
		// tail weights (free when widths match).
		for j := len(p.X); j < f; j++ {
			row[j] = 0
		}
	}
	return sq
}

// Gradient implements Model via explicit backpropagation.
func (m *MLP) Gradient(dst, w []float64, batch []data.Point) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	h, f := m.hidden, m.features
	_, _, w2, _ := m.unpack(w)
	gw1 := dst[:h*f]
	gb1 := dst[h*f : h*f+h]
	gw2 := dst[h*f+h : h*f+2*h]
	hp := getHidden(h)
	hBuf := *hp
	for _, p := range batch {
		out := m.forward(w, p.X, hBuf)
		// dLoss/dz2 = 2(out − y)·out·(1 − out)
		dz2 := 2 * (out - p.Y) * out * (1 - out)
		dst[h*f+2*h] += dz2 // b2
		for i := 0; i < h; i++ {
			gw2[i] += dz2 * hBuf[i]
			// dLoss/da_i = dz2 · w2_i · (1 − tanh²)
			da := dz2 * w2[i] * (1 - hBuf[i]*hBuf[i])
			gb1[i] += da
			row := gw1[i*f : (i+1)*f]
			for j, xj := range p.X {
				row[j] += da * xj
			}
		}
	}
	putHidden(hp)
	inv := 1 / float64(len(batch))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// InitParams returns a deterministic small-magnitude initialization for the
// MLP driven by the given unit-generator function (typically a randx stream's
// Normal method). Linear models can start at zero, but an MLP at zero is a
// saddle point, so symmetric breaking is required.
func (m *MLP) InitParams(normal func() float64) []float64 {
	w := make([]float64, m.Dim())
	scale := 1 / math.Sqrt(float64(m.features))
	for i := range w {
		w[i] = scale * normal()
	}
	return w
}
