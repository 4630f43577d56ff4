// Package dp implements the differential-privacy machinery of the paper's
// §2.3: the Gaussian mechanism calibrated to the L2 sensitivity of the
// clipped batch gradient (Eq. 5–7), a Laplace alternative (Remark 3), and
// RDPEpsilon, the Rényi-DP composition of repeated Gaussian releases. A
// run's total spend is not accumulated here: spec.Spec.Privacy derives it
// from the Spec and the number of rounds released.
package dp

import (
	"errors"
	"fmt"
	"math"

	"dpbyz/internal/randx"
)

// Budget is a per-step privacy budget (ε, δ). The Gaussian mechanism as
// analysed in the paper requires both in (0, 1) (Remark 3).
type Budget struct {
	Epsilon float64
	Delta   float64
}

// Errors for budget validation, matchable with errors.Is.
var (
	ErrBadEpsilon = errors.New("dp: epsilon must be in (0, 1)")
	ErrBadDelta   = errors.New("dp: delta must be in (0, 1)")
)

// Validate reports whether the budget lies in (0, 1)² as required by the
// Gaussian mechanism's analysis.
func (b Budget) Validate() error {
	if !(b.Epsilon > 0 && b.Epsilon < 1) {
		return fmt.Errorf("%w: got %v", ErrBadEpsilon, b.Epsilon)
	}
	if !(b.Delta > 0 && b.Delta < 1) {
		return fmt.Errorf("%w: got %v", ErrBadDelta, b.Delta)
	}
	return nil
}

// GradientSensitivity returns the L2 sensitivity Δh = 2·Gmax/b of the batch
// gradient map h (Eq. 5) when per-sample gradients are clipped to norm Gmax
// and averaged over a batch of size b.
func GradientSensitivity(gmax float64, batchSize int) (float64, error) {
	if gmax <= 0 {
		return 0, fmt.Errorf("dp: non-positive clipping bound %v", gmax)
	}
	if batchSize <= 0 {
		return 0, fmt.Errorf("dp: non-positive batch size %d", batchSize)
	}
	return 2 * gmax / float64(batchSize), nil
}

// GaussianSigma returns the per-coordinate noise standard deviation
// s = Δ·√(2·ln(1.25/δ)) / ε of the Gaussian mechanism for sensitivity Δ
// (Dwork & Roth, Thm A.1; Eq. 6 in the paper).
func GaussianSigma(sensitivity float64, b Budget) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if sensitivity <= 0 {
		return 0, fmt.Errorf("dp: non-positive sensitivity %v", sensitivity)
	}
	return sensitivity * math.Sqrt(2*math.Log(1.25/b.Delta)) / b.Epsilon, nil
}

// NoiseSigmaForGradient composes GradientSensitivity and GaussianSigma: the
// paper's s = 2·Gmax·√(2·log(1.25/δ)) / (b·ε).
func NoiseSigmaForGradient(gmax float64, batchSize int, b Budget) (float64, error) {
	sens, err := GradientSensitivity(gmax, batchSize)
	if err != nil {
		return 0, err
	}
	return GaussianSigma(sens, b)
}

// Mechanism perturbs a vector in place to make its release differentially
// private. Implementations are deterministic functions of the supplied
// stream, so runs are reproducible.
type Mechanism interface {
	// Name identifies the mechanism in logs.
	Name() string
	// Sigma returns the per-coordinate noise scale (std dev for Gaussian,
	// scale parameter for Laplace).
	Sigma() float64
	// PerCoordinateVariance returns the variance each noisy coordinate
	// carries; the DP-adjusted VN ratio (Eq. 8) needs d times this value.
	PerCoordinateVariance() float64
	// Perturb adds noise to v in place using rng and returns v.
	Perturb(v []float64, rng *randx.Stream) []float64
	// PerturbInto writes v plus fresh noise into dst (dst may alias v) and
	// returns dst, fusing the noisy release with a copy so callers that keep
	// the pre-noise gradient separate from the submission pay one pass.
	// It draws exactly the variates Perturb would.
	PerturbInto(dst, v []float64, rng *randx.Stream) []float64
}

// Gaussian is the Gaussian mechanism of Eq. 6.
type Gaussian struct {
	sigma  float64
	budget Budget
}

var _ Mechanism = (*Gaussian)(nil)

// NewGaussian returns a Gaussian mechanism calibrated for the clipped batch
// gradient with bound gmax and batch size b under budget bud.
func NewGaussian(gmax float64, batchSize int, bud Budget) (*Gaussian, error) {
	s, err := NoiseSigmaForGradient(gmax, batchSize, bud)
	if err != nil {
		return nil, err
	}
	return &Gaussian{sigma: s, budget: bud}, nil
}

// NewGaussianWithSigma returns a Gaussian mechanism with an explicit noise
// scale, for analyses that sweep σ directly.
func NewGaussianWithSigma(sigma float64) (*Gaussian, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("dp: non-positive sigma %v", sigma)
	}
	return &Gaussian{sigma: sigma}, nil
}

// Name implements Mechanism.
func (g *Gaussian) Name() string { return "gaussian" }

// Sigma implements Mechanism.
func (g *Gaussian) Sigma() float64 { return g.sigma }

// Budget returns the per-step budget this mechanism was calibrated for
// (zero value when constructed with an explicit sigma).
func (g *Gaussian) Budget() Budget { return g.budget }

// PerCoordinateVariance implements Mechanism: σ².
func (g *Gaussian) PerCoordinateVariance() float64 { return g.sigma * g.sigma }

// Perturb implements Mechanism. The variates come from the stream's
// ziggurat sampler (see the randx package comment for the stream-
// compatibility note).
func (g *Gaussian) Perturb(v []float64, rng *randx.Stream) []float64 {
	return g.PerturbInto(v, v, rng)
}

// PerturbInto implements Mechanism through the stream's bulk fill, which
// draws exactly the variates a per-coordinate Normal loop would.
func (g *Gaussian) PerturbInto(dst, v []float64, rng *randx.Stream) []float64 {
	return rng.AddNormalVec(dst, v, g.sigma)
}

// Laplace is the Laplace mechanism, calibrated on the L1 sensitivity. As the
// paper's Remark 3 notes, all impossibility results carry over to it.
type Laplace struct {
	scale float64
}

var _ Mechanism = (*Laplace)(nil)

// NewLaplace returns a Laplace mechanism with scale Δ1/ε for L1 sensitivity
// sens1 and pure-DP parameter epsilon (> 0; pure DP has no upper bound
// constraint, but the paper's regime of interest is ε < 1).
func NewLaplace(sens1 float64, epsilon float64) (*Laplace, error) {
	if sens1 <= 0 {
		return nil, fmt.Errorf("dp: non-positive L1 sensitivity %v", sens1)
	}
	if epsilon <= 0 {
		return nil, fmt.Errorf("dp: non-positive epsilon %v", epsilon)
	}
	return &Laplace{scale: sens1 / epsilon}, nil
}

// NewLaplaceWithScale returns a Laplace mechanism with an explicit scale
// parameter, for analyses that sweep the noise level directly.
func NewLaplaceWithScale(scale float64) (*Laplace, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("dp: non-positive scale %v", scale)
	}
	return &Laplace{scale: scale}, nil
}

// NewLaplaceForGradient calibrates a Laplace mechanism for a clipped batch
// gradient: the L1 sensitivity of an L2-clipped d-dimensional gradient is at
// most 2·Gmax·√d / b.
func NewLaplaceForGradient(gmax float64, batchSize, dim int, epsilon float64) (*Laplace, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("dp: non-positive dimension %d", dim)
	}
	sens2, err := GradientSensitivity(gmax, batchSize)
	if err != nil {
		return nil, err
	}
	return NewLaplace(sens2*math.Sqrt(float64(dim)), epsilon)
}

// Name implements Mechanism.
func (l *Laplace) Name() string { return "laplace" }

// Sigma implements Mechanism: the Laplace scale parameter.
func (l *Laplace) Sigma() float64 { return l.scale }

// PerCoordinateVariance implements Mechanism: 2·scale².
func (l *Laplace) PerCoordinateVariance() float64 { return 2 * l.scale * l.scale }

// Perturb implements Mechanism.
func (l *Laplace) Perturb(v []float64, rng *randx.Stream) []float64 {
	return l.PerturbInto(v, v, rng)
}

// PerturbInto implements Mechanism.
func (l *Laplace) PerturbInto(dst, v []float64, rng *randx.Stream) []float64 {
	for i := range v {
		dst[i] = v[i] + rng.Laplace(l.scale)
	}
	return dst
}
