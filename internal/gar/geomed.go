package gar

import (
	"fmt"
	"math"
	"sort"

	"dpbyz/internal/vecmath"
)

// GeoMed is the geometric median (the minimizer of Σ‖y − g_i‖), computed
// with smoothed Weiszfeld iterations. It is not one of the paper's seven
// Table-1 rules — it is included as an extension because the geometric
// median is the canonical statistically-robust aggregator the later
// literature builds on, and it slots into the same VN-ratio analysis
// experimentally (its k_F is not derived in the paper, so KF reports 0 and
// the analytical Table-1 calculators skip it).
type GeoMed struct {
	ruleBase
	// MaxIters bounds the Weiszfeld iterations (default 100).
	MaxIters int
	// Tol is the convergence threshold on the iterate movement
	// (default 1e-10).
	Tol float64
}

var (
	_ GAR            = (*GeoMed)(nil)
	_ IntoAggregator = (*GeoMed)(nil)
)

// NewGeoMed returns the geometric-median rule. Like other median-family
// rules it needs an honest majority: 2f < n.
func NewGeoMed(n, f int) (*GeoMed, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f >= n {
		return nil, fmt.Errorf("%w: geomed needs 2f < n (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	g := &GeoMed{MaxIters: 100, Tol: 1e-10}
	g.bind("geomed", n, f, g)
	return g, nil
}

// KF implements GAR. The paper derives no VN-ratio constant for the
// geometric median, so none is claimed.
func (g *GeoMed) KF() float64 { return 0 }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (g *GeoMed) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, g.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	y := dst
	if err := vecmath.CoordMedianInto(y, grads); err != nil {
		return err
	}
	// Convergence is judged relative to the data spread so the rule stays
	// scale-equivariant: the same inputs scaled by c converge to the same
	// (scaled) point. The spread must be a ROBUST statistic — the median of
	// the squared distances to the initial iterate, not the maximum: a single
	// unbounded Byzantine submission would otherwise inflate the smoothing
	// floor until the Weiszfeld weights linearize and the outlier re-enters
	// the aggregate like a mean term (caught by the GAR property battery).
	dists := grow(&s.scores, len(grads))
	vecmath.SqDistsInto(dists, grads, y)
	sort.Float64s(dists)
	spread := vecmath.MedianSorted(dists)
	tol := g.Tol * (1 + math.Sqrt(spread))
	// The Weiszfeld smoothing term is likewise scaled so iterates of c-scaled
	// inputs are exactly c times the original iterates.
	smoothing := 1e-12 * (1 + spread)
	next := grow(&s.vecA, len(y))
	for iter := 0; iter < g.MaxIters; iter++ {
		var wsum float64
		for i := range next {
			next[i] = 0
		}
		vecmath.SqDistsInto(dists, grads, y)
		for i, x := range grads {
			wgt := 1 / math.Sqrt(dists[i]+smoothing)
			wsum += wgt
			vecmath.Axpy(wgt, x, next)
		}
		vecmath.ScaleInPlace(1/wsum, next)
		moved := vecmath.Dist(next, y)
		y, next = next, y
		if moved < tol {
			break
		}
	}
	// The final iterate may live in the scratch buffer after an odd number
	// of swaps; the caller's dst must hold it either way.
	if &y[0] != &dst[0] {
		copy(dst, y)
	}
	return nil
}
