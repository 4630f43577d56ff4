package gar

import (
	"fmt"
	"math"

	"dpbyz/internal/vecmath"
)

// DefaultSketchDim is the JL sketch dimension used when a caller enables
// sketching without choosing k explicitly. 32 keeps the sketch Gram a
// rounding error next to the exact re-check while preserving enough distance
// geometry for the shortlist to contain the true winners on every battery
// fixture.
const DefaultSketchDim = 32

// SketchOptions configures the Sketched wrapper. The zero value selects
// DefaultSketchDim and seed 0.
type SketchOptions struct {
	// SketchDim is the JL sketch dimension k (0 = DefaultSketchDim).
	SketchDim int
	// Seed fixes the deterministic sketch transform.
	Seed uint64
}

// RoundAware was the hook through which the retired cross-round incremental
// kernel observed the round counter. No rule implements it and no round loop
// calls it any more; the declaration survives only because bench/wrap.go
// names it, and goes with the next [benchmark] PR (ROADMAP item 11(e)).
type RoundAware interface {
	BeginRound(round int)
}

// Sketched wraps a Krum-family rule (krum, multikrum, bulyan, mda) with a
// sub-quadratic candidate-filtering stage: every submission is projected by
// a fixed seed-derived sparse random projection into k ≪ d dimensions, the
// pairwise distance pass runs on the sketches — Θ(n²·k) instead of Θ(n²·d) —
// and the sketch scores shortlist c candidates, which are then re-scored with
// the exact float64 kernel before the final selection. It approximates the
// inner rule: the selection matches the inner rule's only when the true
// winners land in the shortlist, and on noise-dominated rows — the DP regime
// — they mostly do not. On N(m, I) rows with ‖m‖ far below the noise at
// d = 10⁴, it returned exact Krum's pick in 7 of 10 trials at n = 64 and in
// 0 of 10 at n = 256 (ROADMAP item 10). That is why the kernel is an
// explicit choice and never a default.
//
// Sketched builds its sketcher lazily at the first aggregation (the
// dimension is unknown before) and is therefore NOT safe for concurrent use,
// unlike the stateless inner rules: every goroutine that aggregates needs
// its own instance.
type Sketched struct {
	ruleBase
	inner GAR
	m     int // selection count: MultiKrum's m, else 1

	kdim int
	seed uint64
	sk   *vecmath.Sketcher // built lazily at the first aggregate (d unknown here)
}

var (
	_ GAR            = (*Sketched)(nil)
	_ IntoAggregator = (*Sketched)(nil)
)

// SketchSupported reports whether the named registry rule can be wrapped by
// NewSketched.
func SketchSupported(name string) bool {
	switch name {
	case "krum", "multikrum", "bulyan", "mda":
		return true
	}
	return false
}

// NewSketched builds the sketched wrapper around the registry rule named
// inner, constructed for the same (n, f) — the wrapper changes how the
// selection is computed, never its shape constraints.
func NewSketched(inner string, n, f int, opt SketchOptions) (*Sketched, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if !SketchSupported(inner) {
		return nil, fmt.Errorf("gar: sketched does not support inner rule %q (supported: krum, multikrum, bulyan, mda)", inner)
	}
	if opt.SketchDim < 0 {
		return nil, fmt.Errorf("gar: negative sketch dimension %d", opt.SketchDim)
	}
	in, err := New(inner, n, f)
	if err != nil {
		return nil, fmt.Errorf("gar: sketched(%s): %w", inner, err)
	}
	sk := &Sketched{inner: in, m: 1, kdim: opt.SketchDim, seed: opt.Seed}
	sk.bind("sketched("+inner+")", n, f, sk)
	if sk.kdim == 0 {
		sk.kdim = DefaultSketchDim
	}
	if mk, ok := in.(*MultiKrum); ok {
		sk.m = mk.M()
	}
	return sk, nil
}

// KF implements GAR with the inner rule's constant. The constant describes
// the inner rule's selection, which the wrapper only approximates (see
// Sketched), so it is not a proven bound for the wrapper itself.
func (sk *Sketched) KF() float64 { return sk.inner.KF() }

// Inner returns the wrapped rule.
func (sk *Sketched) Inner() GAR { return sk.inner }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (sk *Sketched) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, sk.n); err != nil {
		return err
	}
	switch sk.inner.(type) {
	case *Bulyan:
		return sk.aggregateBulyan(dst, grads)
	case *MDA:
		return sk.aggregateMDA(dst, grads)
	default: // *Krum or *MultiKrum, guaranteed by the constructor
		return sk.aggregateKrum(dst, grads)
	}
}

// ensureSketcher (re)builds the lazily constructed sketch transform when the
// gradient dimension is first seen or changes. Amortized: one allocation per
// (d, k) shape over the rule's lifetime.
func (sk *Sketched) ensureSketcher(d int) {
	if sk.sk != nil && sk.sk.D() == d {
		return
	}
	// d >= 1 is guaranteed by checkAggInto and k >= 1 by the constructor, so
	// NewSketcher cannot fail.
	sk.sk, _ = vecmath.NewSketcher(d, sk.kdim, sk.seed)
}

// sketchGram projects every gradient through the JL transform and fills the
// scratch's primary square matrix with the pairwise sketch distances —
// Θ(n·d) projection + Θ(n²·k) distances, replacing the exact Θ(n²·d) pass.
// The returned matrix aliases the scratch.
//
//dpbyz:scratch
//dpbyz:hotpath
func (sk *Sketched) sketchGram(s *scratch, grads [][]float64) [][]float64 {
	n := len(grads)
	sk.ensureSketcher(len(grads[0]))
	proj := s.sketchRows(n, sk.sk.K())
	for i := range grads {
		// Dimensions are pinned by ensureSketcher and the rows view, so the
		// projection error cannot fire.
		_ = sk.sk.ProjectInto(proj[i], grads[i])
	}
	sg := s.square(n)
	_ = vecmath.PairwiseSqDistsInto(sg, proj)
	return sg
}

// shortlistSize derives the candidate count for a selection of m rows:
// generous enough that the true winners land inside it with margin (the f
// Byzantine rows can at worst displace f honest candidates), clamped to n.
func (sk *Sketched) shortlistSize(m int) int {
	c := 2*(m+sk.f) + 3
	if c < 8 {
		c = 8
	}
	if c > sk.n {
		c = sk.n
	}
	if c < m {
		c = m
	}
	return c
}

// cachedSqDist returns the exact squared distance between gradients i and j,
// computing it at most once per aggregation via the NaN-sentinel cache
// (scratch.nanSquare).
//
//dpbyz:hotpath
func cachedSqDist(cache [][]float64, grads [][]float64, i, j int) float64 {
	v := cache[i][j]
	if v == v { // not NaN: already computed
		return v
	}
	v = vecmath.SqDist(grads[i], grads[j])
	cache[i][j] = v
	cache[j][i] = v
	return v
}

// shortlist is the one candidate-filtering step of the per-row-score family:
// Krum and Multi-Krum run it once with every row alive, Bulyan once per
// iteration over the rows it has not selected yet. Every alive row gets a
// sketch-space Krum score (its k nearest alive neighbours in sg); the c best
// — ties broken by lexLess for permutation invariance — are re-scored with
// exact distances through the cache, which fills lazily and is shared across
// Bulyan's iterations. It returns the exact scores by position in alive, +Inf
// off the shortlist, and the position of the best one (exact ties again by
// lexLess). The scores alias the scratch.
//
//dpbyz:scratch
//dpbyz:hotpath
func shortlist(s *scratch, sg, cache, grads [][]float64, alive []int, k, c int) (pick int, exact []float64) {
	ma := len(alive)
	if c > ma {
		c = ma
	}
	approx := grow(&s.scoresB, ma)
	exact = grow(&s.scores, ma)
	cand := grow(&s.intC, ma)
	row := grow(&s.row, ma)
	for ai, i := range alive {
		row = row[:0]
		for aj, j := range alive {
			if aj != ai {
				row = append(row, sg[i][j])
			}
		}
		approx[ai] = krumScoreFromRow(row, k)
		exact[ai] = math.Inf(1)
		cand[ai] = ai
	}
	for a := 0; a < c; a++ {
		best := a
		for b := a + 1; b < ma; b++ {
			if approx[cand[b]] < approx[cand[best]] ||
				(approx[cand[b]] == approx[cand[best]] && lexLess(grads[alive[cand[b]]], grads[alive[cand[best]]])) {
				best = b
			}
		}
		cand[a], cand[best] = cand[best], cand[a]
	}
	pick = cand[0]
	for _, ai := range cand[:c] {
		row = row[:0]
		for aj, j := range alive {
			if aj != ai {
				row = append(row, cachedSqDist(cache, grads, alive[ai], j))
			}
		}
		exact[ai] = krumScoreFromRow(row, k)
		if exact[ai] < exact[pick] ||
			(exact[ai] == exact[pick] && lexLess(grads[alive[ai]], grads[alive[pick]])) {
			pick = ai
		}
	}
	return pick, exact
}

// aggregateKrum is the krum / multikrum path: one shortlist over the whole
// cohort, then the exact selection with non-candidates pinned to +Inf.
// Cost: Θ(n²·k + c·n·d) against the exact Θ(n²·d).
//
//dpbyz:hotpath
func (sk *Sketched) aggregateKrum(dst []float64, grads [][]float64) error {
	s := getScratch()
	defer putScratch(s)
	n := sk.n
	sg := sk.sketchGram(s, grads)
	alive := grow(&s.intA, n)
	for i := range alive {
		alive[i] = i
	}
	best, scores := shortlist(s, sg, s.nanSquare(n), grads, alive, n-sk.f-2, sk.shortlistSize(sk.m))
	if sk.m == 1 {
		copy(dst, grads[best])
		return nil
	}
	selected := selectByScore(grow(&s.selA, sk.m), grow(&s.intB, n), grads, scores)
	return vecmath.MeanInto(dst, selected)
}

// aggregateBulyan runs Bulyan's iterative Krum selection with one shortlist
// per iteration over the rows still alive; the exact-pair cache is shared
// across iterations, so a pair is computed at most once per aggregation.
//
//dpbyz:hotpath
func (sk *Sketched) aggregateBulyan(dst []float64, grads [][]float64) error {
	s := getScratch()
	defer putScratch(s)
	n, f := sk.n, sk.f
	theta := n - 2*f
	beta := theta - 2*f
	if beta < 1 {
		beta = 1
	}
	sg := sk.sketchGram(s, grads)
	cache := s.nanSquare(n)
	alive := grow(&s.intA, n)
	for i := range alive {
		alive[i] = i
	}
	c := sk.shortlistSize(1)
	selected := grow(&s.selB, theta)[:0]
	for len(selected) < theta {
		var pick int
		if k := len(alive) - f - 2; k >= 1 {
			pick, _ = shortlist(s, sg, cache, grads, alive, k, c)
		} else {
			pick = minNormAlive(grads, alive)
		}
		selected = append(selected, grads[alive[pick]])
		alive = append(alive[:pick], alive[pick+1:]...)
	}
	return vecmath.MeanAroundMedianInto(dst, selected, beta)
}

// mdaCenters derives the number of candidate centers the sketched MDA path
// evaluates exactly.
func (sk *Sketched) mdaCenters() int {
	c := sk.f + 3
	if c < 4 {
		c = 4
	}
	if c > sk.n {
		c = sk.n
	}
	return c
}

// aggregateMDA mirrors MDA's greedy heuristic in sketch space: for every
// center, its (n−f)-subset of sketch-nearest rows is scored by sketch
// diameter and scatter; the best c centers then have their subsets
// re-evaluated with exact distances (lazily cached — subsets overlap almost
// entirely, and pairs touching far outliers are never computed), and the
// winner by exact (diameter, scatter) is averaged. MDA's subset objective
// has no per-row score, so it shares only the sketch Gram and the exact-pair
// cache with the shortlist step.
//
//dpbyz:hotpath
func (sk *Sketched) aggregateMDA(dst []float64, grads [][]float64) error {
	if sk.f == 0 {
		return vecmath.MeanInto(dst, grads)
	}
	s := getScratch()
	defer putScratch(s)
	n := sk.n
	k := n - sk.f
	sg := sk.sketchGram(s, grads)
	cache := s.nanSquare(n)
	diam := grow(&s.scores, n)
	scat := grow(&s.scoresB, n)
	order := grow(&s.intB, n)
	for i := 0; i < n; i++ {
		cand := sketchNearest(sg, order, i, k)
		var dm, sc float64
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				dv := sg[cand[a]][cand[b]]
				sc += dv
				if dv > dm {
					dm = dv
				}
			}
		}
		diam[i], scat[i] = dm, sc
	}
	c := sk.mdaCenters()
	centers := grow(&s.intA, n)
	for i := range centers {
		centers[i] = i
	}
	for a := 0; a < c; a++ {
		best := a
		for b := a + 1; b < n; b++ {
			ib, ia := centers[b], centers[best]
			if diam[ib] < diam[ia] || (diam[ib] == diam[ia] && scat[ib] < scat[ia]) ||
				(diam[ib] == diam[ia] && scat[ib] == scat[ia] && lexLess(grads[ib], grads[ia])) {
				best = b
			}
		}
		centers[a], centers[best] = centers[best], centers[a]
	}
	bestDiam, bestScat := math.Inf(1), math.Inf(1)
	bestSub := grow(&s.intC, k)[:0]
	for _, ci := range centers[:c] {
		cand := sketchNearest(sg, order, ci, k)
		var dm, sc float64
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				dv := cachedSqDist(cache, grads, cand[a], cand[b])
				sc += dv
				if dv > dm {
					dm = dv
				}
			}
		}
		if dm < bestDiam || (dm == bestDiam && sc < bestScat) {
			bestDiam, bestScat = dm, sc
			bestSub = append(bestSub[:0], cand...)
		}
	}
	// The subset arrives in sketch-distance order; averaging is not
	// order-invariant in floating point, so canonicalize to ascending index
	// order — the order the exact enumeration returns.
	sortIntsAsc(bestSub)
	chosen := grow(&s.selA, k)
	for i, j := range bestSub {
		chosen[i] = grads[j]
	}
	return vecmath.MeanInto(dst, chosen)
}

// sortIntsAsc is an allocation-free insertion sort for the small index
// subsets the sketched paths canonicalize.
//
//dpbyz:hotpath
func sortIntsAsc(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// sketchNearest fills order with 0..n-1 and partially selects the k rows
// sketch-nearest to center (center itself included at distance 0), returning
// order[:k]. Same partial-selection shape as minDiameterGreedy.
//
//dpbyz:hotpath
func sketchNearest(sg [][]float64, order []int, center, k int) []int {
	n := len(order)
	for j := range order {
		order[j] = j
	}
	row := sg[center]
	for a := 0; a < k; a++ {
		minJ := a
		for b := a + 1; b < n; b++ {
			if row[order[b]] < row[order[minJ]] {
				minJ = b
			}
		}
		order[a], order[minJ] = order[minJ], order[a]
	}
	return order[:k]
}
