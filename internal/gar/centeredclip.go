package gar

import (
	"fmt"
	"sort"

	"dpbyz/internal/vecmath"
)

// CenteredClip is iterative centered clipping (Karimireddy, He & Jaggi,
// ICML 2021): starting from a robust center v₀, it iterates
//
//	v_{l+1} = v_l + (1/n) Σ_i clip(x_i − v_l, τ)
//
// so that each worker can pull the estimate by at most τ/n per iteration.
// It is an extension beyond the paper's Table-1 rules (its
// analysis postdates the paper), included because it is the aggregator of
// choice in the follow-up literature on momentum + robustness; KF reports
// 0 since the paper derives no VN-ratio constant for it.
//
// This implementation is stateless: v₀ is the coordinate-wise median of
// the step's submissions, τ is the median distance to v₀ (adaptive, which
// makes the rule scale-equivariant), and it runs centeredClipIters
// iterations.
type CenteredClip struct {
	ruleBase
}

// centeredClipIters is the number of clipping iterations.
const centeredClipIters = 3

var (
	_ GAR            = (*CenteredClip)(nil)
	_ IntoAggregator = (*CenteredClip)(nil)
)

// NewCenteredClip returns the centered-clipping rule. It needs an honest
// majority: 2f < n.
func NewCenteredClip(n, f int) (*CenteredClip, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f >= n {
		return nil, fmt.Errorf("%w: centeredclip needs 2f < n (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	c := &CenteredClip{}
	c.bind("centeredclip", n, f, c)
	return c, nil
}

// KF implements GAR: no VN-ratio constant is derived in the paper.
func (c *CenteredClip) KF() float64 { return 0 }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (c *CenteredClip) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, c.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	v := dst
	if err := vecmath.CoordMedianInto(v, grads); err != nil {
		return err
	}
	radius := medianDistanceTo(grads, v, grow(&s.scores, len(grads)))
	if radius == 0 {
		// All submissions identical to the center; nothing to refine.
		return nil
	}
	delta := grow(&s.vecA, len(v))
	diff := grow(&s.vecB, len(v))
	for l := 0; l < centeredClipIters; l++ {
		for i := range delta {
			delta[i] = 0
		}
		for _, x := range grads {
			vecmath.SubInto(diff, x, v)
			norm := vecmath.Norm(diff)
			scale := 1.0
			if norm > radius {
				scale = radius / norm
			}
			vecmath.Axpy(scale, diff, delta)
		}
		vecmath.Axpy(1/float64(c.n), delta, v)
	}
	return nil
}

// medianDistanceTo returns the median Euclidean distance from the points
// to the center, using dists (len(grads)) as scratch.
//
//dpbyz:hotpath
func medianDistanceTo(grads [][]float64, center, dists []float64) float64 {
	for i, g := range grads {
		dists[i] = vecmath.Dist(g, center)
	}
	sort.Float64s(dists)
	return vecmath.MedianSorted(dists)
}
