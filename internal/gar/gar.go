// Package gar implements the gradient aggregation rules (GARs) studied by
// the paper: the non-robust average baseline and the seven statistically
// robust, (α, f)-Byzantine-resilient rules of Table 1 — Krum, Multi-Krum,
// coordinate-wise Median, Trimmed Mean, Phocas, Meamed, Bulyan and MDA —
// together with their VN-ratio constants k_F(n, f) and the Table-1
// necessary-condition calculators (see vnratio.go).
//
// Every rule is constructed for a fixed system size n and Byzantine bound f
// and validates the rule-specific relationship between the two (for example
// Krum needs n > 2f + 2, Bulyan needs n ≥ 4f + 3). Aggregate is a pure
// function and safe for concurrent use.
//
//dpbyz:deterministic
package gar

import (
	"errors"
	"fmt"
	"math"

	"dpbyz/internal/vecmath"
)

// GAR is a deterministic gradient aggregation rule F: R^{d×n} → R^d.
type GAR interface {
	// Name identifies the rule (lower-case, stable; used by the registry).
	Name() string
	// N returns the expected number of input gradients.
	N() int
	// F returns the Byzantine tolerance the rule was constructed for.
	F() int
	// KF returns the VN-ratio bound k_F(n, f) of Eq. 2, or 0 when the rule
	// offers no Byzantine resilience (the average).
	KF() float64
	// Aggregate combines exactly N() gradients of equal dimension into one
	// aggregate gradient. It never mutates its inputs.
	Aggregate(grads [][]float64) ([]float64, error)
}

// IntoAggregator is the allocation-free aggregation fast path: AggregateInto
// writes the aggregate of grads into dst (length = gradient dimension)
// without allocating gradient-sized scratch on the steady state — all
// working memory comes from a sync.Pool shared across calls, and on the
// sequential (sub-grain) path no allocation happens at all; when the
// kernels fan out across cores, the goroutine dispatch itself costs a
// handful of small allocations. dst must not alias any row of grads:
// several rules write intermediate iterates into dst while still reading
// the inputs. Every built-in rule implements it; Aggregate is a thin
// allocating wrapper over it.
type IntoAggregator interface {
	AggregateInto(dst []float64, grads [][]float64) error
}

// AggregateInto aggregates grads into dst using g's allocation-free path
// when it has one, falling back to Aggregate plus a copy otherwise. Training
// loops that reuse dst across steps aggregate without per-step allocations.
func AggregateInto(g GAR, dst []float64, grads [][]float64) error {
	if ia, ok := g.(IntoAggregator); ok {
		return ia.AggregateInto(dst, grads)
	}
	out, err := g.Aggregate(grads)
	if err != nil {
		return err
	}
	if len(out) != len(dst) {
		return fmt.Errorf("gar: destination has dim %d, want %d: %w",
			len(dst), len(out), vecmath.ErrDimensionMismatch)
	}
	copy(dst, out)
	return nil
}

// ruleBase carries what every rule answers the same way — its registry
// name, the (n, f) it was constructed for and the allocating Aggregate — so
// a rule itself is its constructor check, its KF and its AggregateInto.
type ruleBase struct {
	name string
	n, f int
	into IntoAggregator // the embedding rule; Aggregate runs its AggregateInto
}

// bind fills the base; every constructor calls it with the rule it is
// building as self.
func (b *ruleBase) bind(name string, n, f int, self IntoAggregator) {
	*b = ruleBase{name: name, n: n, f: f, into: self}
}

// Name implements GAR.
func (b *ruleBase) Name() string { return b.name }

// N implements GAR.
func (b *ruleBase) N() int { return b.n }

// F implements GAR.
func (b *ruleBase) F() int { return b.f }

// Aggregate implements GAR: the allocating wrapper over the embedding
// rule's AggregateInto.
func (b *ruleBase) Aggregate(grads [][]float64) ([]float64, error) {
	var d int
	if len(grads) > 0 {
		d = len(grads[0])
	}
	out := make([]float64, d)
	if err := b.into.AggregateInto(out, grads); err != nil {
		return nil, err
	}
	return out, nil
}

// Validation errors, matchable with errors.Is.
var (
	ErrBadWorkerCount    = errors.New("gar: invalid worker count")
	ErrBadByzantineCount = errors.New("gar: invalid Byzantine count")
	ErrWrongInputCount   = errors.New("gar: wrong number of gradients")
	ErrEmptyGradient     = errors.New("gar: empty gradient")
)

// checkInputs validates a gradient matrix against the expected count.
func checkInputs(grads [][]float64, n int) error {
	if len(grads) != n {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongInputCount, len(grads), n)
	}
	if len(grads[0]) == 0 {
		return ErrEmptyGradient
	}
	d := len(grads[0])
	for i, g := range grads {
		if len(g) != d {
			return fmt.Errorf("gar: gradient %d has dim %d, want %d: %w",
				i, len(g), d, vecmath.ErrDimensionMismatch)
		}
	}
	return nil
}

// checkAggInto validates a gradient matrix and a destination buffer for an
// AggregateInto call.
func checkAggInto(dst []float64, grads [][]float64, n int) error {
	if err := checkInputs(grads, n); err != nil {
		return err
	}
	if len(dst) != len(grads[0]) {
		return fmt.Errorf("gar: destination has dim %d, want %d: %w",
			len(dst), len(grads[0]), vecmath.ErrDimensionMismatch)
	}
	return nil
}

// checkNF validates the universal constraints 0 <= f and n >= 1.
func checkNF(n, f int) error {
	if n < 1 {
		return fmt.Errorf("%w: n = %d", ErrBadWorkerCount, n)
	}
	if f < 0 || f >= n {
		return fmt.Errorf("%w: f = %d with n = %d", ErrBadByzantineCount, f, n)
	}
	return nil
}

// Average is the non-robust baseline F = (1/n)·Σ g_i used by the paper's
// trusted-server scenario (Eq. 1). It tolerates zero Byzantine workers.
type Average struct{ ruleBase }

var (
	_ GAR            = (*Average)(nil)
	_ IntoAggregator = (*Average)(nil)
)

// NewAverage returns the averaging rule over n workers.
func NewAverage(n int) (*Average, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n = %d", ErrBadWorkerCount, n)
	}
	a := &Average{}
	a.bind("average", n, 0, a)
	return a, nil
}

// KF implements GAR: no resilience bound.
func (a *Average) KF() float64 { return 0 }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (a *Average) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, a.n); err != nil {
		return err
	}
	return vecmath.MeanInto(dst, grads)
}

// Median is the coordinate-wise median rule of Yin et al. (2018); the paper
// lists k_F(n, f) = 1/√(n − f) under the assumption 2f ≤ n − 1.
type Median struct{ ruleBase }

var (
	_ GAR            = (*Median)(nil)
	_ IntoAggregator = (*Median)(nil)
)

// NewMedian returns the coordinate-wise median rule.
func NewMedian(n, f int) (*Median, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f > n-1 {
		return nil, fmt.Errorf("%w: median needs 2f <= n-1 (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	m := &Median{}
	m.bind("median", n, f, m)
	return m, nil
}

// KF implements GAR: 1/√(n − f) (paper, proof of Prop. 2).
func (m *Median) KF() float64 { return 1 / math.Sqrt(float64(m.n-m.f)) }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (m *Median) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, m.n); err != nil {
		return err
	}
	return vecmath.CoordMedianInto(dst, grads)
}

// TrimmedMean is the coordinate-wise f-trimmed mean of Yin et al. (2018);
// k_F(n, f) = √((n − 2f)² / (2(f+1)(n − f))) (paper, proof of Prop. 3).
type TrimmedMean struct{ ruleBase }

var (
	_ GAR            = (*TrimmedMean)(nil)
	_ IntoAggregator = (*TrimmedMean)(nil)
)

// NewTrimmedMean returns the f-trimmed coordinate-wise mean.
func NewTrimmedMean(n, f int) (*TrimmedMean, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f >= n {
		return nil, fmt.Errorf("%w: trimmed mean needs 2f < n (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	t := &TrimmedMean{}
	t.bind("trimmedmean", n, f, t)
	return t, nil
}

// KF implements GAR.
func (t *TrimmedMean) KF() float64 {
	n, f := float64(t.n), float64(t.f)
	return math.Sqrt((n - 2*f) * (n - 2*f) / (2 * (f + 1) * (n - f)))
}

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (t *TrimmedMean) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, t.n); err != nil {
		return err
	}
	return vecmath.TrimmedCoordMeanInto(dst, grads, t.f)
}

// Meamed is the mean-around-median rule of Xie et al. (2018): per
// coordinate, the average of the n − f values closest to the median;
// k_F(n, f) = 1/√(10(n − f)) (paper, proof of Prop. 2).
type Meamed struct{ ruleBase }

var (
	_ GAR            = (*Meamed)(nil)
	_ IntoAggregator = (*Meamed)(nil)
)

// NewMeamed returns the mean-around-median rule.
func NewMeamed(n, f int) (*Meamed, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f > n-1 {
		return nil, fmt.Errorf("%w: meamed needs 2f <= n-1 (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	m := &Meamed{}
	m.bind("meamed", n, f, m)
	return m, nil
}

// KF implements GAR.
func (m *Meamed) KF() float64 { return 1 / math.Sqrt(10*float64(m.n-m.f)) }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (m *Meamed) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, m.n); err != nil {
		return err
	}
	return vecmath.MeanAroundMedianInto(dst, grads, m.n-m.f)
}

// Phocas is the rule of Xie et al. (2018): per coordinate, the average of
// the n − f values closest to the f-trimmed mean. The paper reports
// k_F(n, f) = √(4 + (n − 2f)²/(12(f+1)(n − f)))⁻¹-style constants via its
// Prop. 3 derivation; we expose the constant exactly as the appendix states
// it (see KF).
type Phocas struct{ ruleBase }

var (
	_ GAR            = (*Phocas)(nil)
	_ IntoAggregator = (*Phocas)(nil)
)

// NewPhocas returns the Phocas rule.
func NewPhocas(n, f int) (*Phocas, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f >= n {
		return nil, fmt.Errorf("%w: phocas needs 2f < n (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	p := &Phocas{}
	p.bind("phocas", n, f, p)
	return p, nil
}

// KF implements GAR: the appendix of the paper uses
// k_F(n, f) = √(4 + (n − 2f)²/(12(f+1)(n − f))) in the Prop. 3 proof.
func (p *Phocas) KF() float64 {
	n, f := float64(p.n), float64(p.f)
	return math.Sqrt(4 + (n-2*f)*(n-2*f)/(12*(f+1)*(n-f)))
}

// phocasVal is one coordinate's candidate in the Phocas selection.
type phocasVal struct {
	val  float64
	dist float64
}

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (p *Phocas) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, p.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	trimmed := grow(&s.vecA, len(dst))
	if err := vecmath.TrimmedCoordMeanInto(trimmed, grads, p.f); err != nil {
		return err
	}
	// Per coordinate, average the n-f values nearest the trimmed mean.
	d := len(dst)
	if w := vecmath.ChunkWorkers(len(grads) * d); w > 1 {
		// Above-grain n·d fans out across cores; the closure spawn is the
		// documented fixed goroutine-dispatch cost (see IntoAggregator).
		//dpbyz:allowalloc
		vecmath.RunChunked(d, w, func(lo, hi int) {
			ws := getScratch()
			p.phocasRange(dst, trimmed, grads, grow(&ws.scored, p.n), lo, hi)
			putScratch(ws)
		})
		return nil
	}
	p.phocasRange(dst, trimmed, grads, grow(&s.scored, p.n), 0, d)
	return nil
}

// phocasRange runs the Phocas per-coordinate selection over [lo, hi) using
// the provided n-sized column.
//
//dpbyz:hotpath
func (p *Phocas) phocasRange(dst, trimmed []float64, grads [][]float64, col []phocasVal, lo, hi int) {
	keep := p.n - p.f
	for j := lo; j < hi; j++ {
		for i, g := range grads {
			col[i] = phocasVal{val: g[j], dist: math.Abs(g[j] - trimmed[j])}
		}
		// Selection by partial sort: keep values with the smallest dist.
		// n is small (tens), so insertion-style selection is fine.
		for a := 0; a < keep; a++ {
			best := a
			for b := a + 1; b < p.n; b++ {
				if col[b].dist < col[best].dist {
					best = b
				}
			}
			col[a], col[best] = col[best], col[a]
		}
		var s float64
		for _, c := range col[:keep] {
			s += c.val
		}
		dst[j] = s / float64(keep)
	}
}
