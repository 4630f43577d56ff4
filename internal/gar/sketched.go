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

// DefaultRefreshEvery caps the number of rounds the incremental mode rides
// one reference Gram before forcing a full recompute.
const DefaultRefreshEvery = 16

// DefaultDriftFraction is the drift threshold of the incremental mode: a
// full recompute triggers when any worker has moved further from its
// reference than this fraction of the mean reference distance.
const DefaultDriftFraction = 0.25

// SketchOptions configures the Sketched wrapper. The zero value selects the
// JL mode with DefaultSketchDim, seed 0 and the derived shortlist size.
type SketchOptions struct {
	// SketchDim is the JL sketch dimension k (0 = DefaultSketchDim).
	SketchDim int
	// Seed fixes the deterministic sketch transform.
	Seed uint64
	// Incremental selects drift-bounded incremental Gram maintenance instead
	// of JL sketching. Unlike the JL mode, incremental selection is provably
	// bit-identical to the exact rule every round.
	Incremental bool
	// Shortlist overrides the candidate count (0 = derived from m and f).
	Shortlist int
	// RefreshEvery overrides the incremental round cap (0 = default).
	RefreshEvery int
	// DriftFraction overrides the incremental drift threshold (0 = default).
	DriftFraction float64
}

// RoundAware is implemented by stateful rules that want to observe the
// training-round counter. The driver calls BeginRound before each
// aggregation; a non-consecutive round (resume from checkpoint, rollback,
// round jump after a leader change) tells the rule that its cross-round
// state no longer describes the previous submissions.
type RoundAware interface {
	BeginRound(round int)
}

// Sketched wraps a Krum-family rule (krum, multikrum, bulyan, mda) with a
// sub-quadratic candidate-filtering stage, in one of two modes.
//
// JL mode ("sketched(inner)"): every submission is projected by a fixed
// seed-derived sparse random projection into k ≪ d dimensions, the pairwise
// distance pass runs on the sketches — Θ(n²·k) instead of Θ(n²·d) — and the
// sketch scores shortlist c candidates, which are then re-scored with the
// exact float64 kernel before the final selection. The selection is exact
// whenever the true winners land in the shortlist (the property battery pins
// this on fixtures); it is not guaranteed bit-identical on adversarial
// inputs, which is why the provable mode below exists.
//
// Incremental mode ("incremental(inner)"): a vecmath.IncGram anchors an
// exact Gram at a reference round; each following round costs Θ(n·d) to
// measure per-worker drift, and triangle-inequality bounds on every pair
// produce score lower/upper bounds. Candidates are the rows whose score
// lower bound does not exceed the m-th smallest upper bound — a set that
// provably contains every true winner — and the exact re-score of the
// candidates makes the selection BIT-IDENTICAL to the exact rule, every
// round, with no tuning. When accumulated drift makes the bounds too loose
// the wrapper calls Refresh, the full-recompute escape hatch. MDA has no
// per-row score to bound, so incremental mode rejects it.
//
// Sketched is stateful (lazily built sketcher, persistent incremental Gram,
// round bookkeeping) and therefore NOT safe for concurrent use, unlike the
// stateless inner rules. It implements RoundAware: a round jump resets the
// incremental state so stale references never leak across a resume.
type Sketched struct {
	n, f      int
	innerName string
	inner     GAR
	m         int // selection count: MultiKrum's m, else 1

	kdim        int
	seed        uint64
	incremental bool
	shortlist   int

	refreshEvery int
	driftFrac    float64

	sk        *vecmath.Sketcher // built lazily at the first aggregate (d unknown here)
	ig        *vecmath.IncGram
	lastRound int
}

var (
	_ GAR            = (*Sketched)(nil)
	_ IntoAggregator = (*Sketched)(nil)
	_ RoundAware     = (*Sketched)(nil)
)

// SketchSupported reports whether the named registry rule can be wrapped by
// NewSketched in JL mode.
func SketchSupported(name string) bool {
	switch name {
	case "krum", "multikrum", "bulyan", "mda":
		return true
	}
	return false
}

// IncrementalSupported reports whether the named rule supports the
// bit-identical incremental mode (the per-row-score Krum family).
func IncrementalSupported(name string) bool {
	switch name {
	case "krum", "multikrum", "bulyan":
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
	if opt.Incremental && !IncrementalSupported(inner) {
		return nil, fmt.Errorf("gar: incremental mode does not support inner rule %q (no per-row score to bound)", inner)
	}
	if opt.SketchDim < 0 {
		return nil, fmt.Errorf("gar: negative sketch dimension %d", opt.SketchDim)
	}
	if opt.Shortlist < 0 {
		return nil, fmt.Errorf("gar: negative shortlist size %d", opt.Shortlist)
	}
	in, err := New(inner, n, f)
	if err != nil {
		return nil, fmt.Errorf("gar: sketched(%s): %w", inner, err)
	}
	sk := &Sketched{
		n: n, f: f, innerName: inner, inner: in, m: 1,
		kdim:         opt.SketchDim,
		seed:         opt.Seed,
		incremental:  opt.Incremental,
		shortlist:    opt.Shortlist,
		refreshEvery: opt.RefreshEvery,
		driftFrac:    opt.DriftFraction,
		lastRound:    -1,
	}
	if sk.kdim == 0 {
		sk.kdim = DefaultSketchDim
	}
	if sk.refreshEvery <= 0 {
		sk.refreshEvery = DefaultRefreshEvery
	}
	if sk.driftFrac <= 0 {
		sk.driftFrac = DefaultDriftFraction
	}
	if mk, ok := in.(*MultiKrum); ok {
		sk.m = mk.M()
	}
	if sk.incremental {
		sk.ig = vecmath.NewIncGram()
	}
	return sk, nil
}

// Name implements GAR; "sketched(krum)" or "incremental(krum)".
func (sk *Sketched) Name() string {
	if sk.incremental {
		return "incremental(" + sk.inner.Name() + ")"
	}
	return "sketched(" + sk.inner.Name() + ")"
}

// N implements GAR.
func (sk *Sketched) N() int { return sk.n }

// F implements GAR.
func (sk *Sketched) F() int { return sk.f }

// KF implements GAR: the wrapper inherits the inner rule's constant — the
// incremental mode computes the identical selection, and the JL mode matches
// it whenever the shortlist holds (the regime the constant describes).
func (sk *Sketched) KF() float64 { return sk.inner.KF() }

// Inner returns the wrapped rule.
func (sk *Sketched) Inner() GAR { return sk.inner }

// Incremental reports the mode.
func (sk *Sketched) Incremental() bool { return sk.incremental }

// Refreshes returns the number of full Gram recomputes the incremental mode
// has performed (0 in JL mode); observability for the drift tests.
func (sk *Sketched) Refreshes() int {
	if sk.ig == nil {
		return 0
	}
	return sk.ig.Refreshes()
}

// BeginRound implements RoundAware: a non-consecutive round discards the
// incremental reference state, so a resume from checkpoint or a rollback
// re-anchors on fresh exact distances instead of bounding against
// submissions from a different timeline.
func (sk *Sketched) BeginRound(round int) {
	if sk.incremental && sk.lastRound >= 0 && round != sk.lastRound+1 {
		sk.ig.Reset()
	}
	sk.lastRound = round
}

// Aggregate implements GAR.
func (sk *Sketched) Aggregate(grads [][]float64) ([]float64, error) {
	return aggregateAlloc(sk, grads)
}

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (sk *Sketched) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, sk.n); err != nil {
		return err
	}
	if len(dst) == 0 {
		// Zero-dimensional gradients: nothing to sketch, nothing to bound.
		return AggregateInto(sk.inner, dst, grads)
	}
	switch sk.innerName {
	case "krum", "multikrum":
		return sk.aggregateKrum(dst, grads)
	case "bulyan":
		return sk.aggregateBulyan(dst, grads)
	default: // "mda", guaranteed by the constructor
		return sk.aggregateMDA(dst, grads)
	}
}

// ensureSketcher (re)builds the lazily constructed sketch transform when the
// gradient dimension is first seen or changes. Amortized: one allocation per
// (d, k) shape over the rule's lifetime.
func (sk *Sketched) ensureSketcher(d int) {
	if sk.sk != nil && sk.sk.D() == d {
		return
	}
	// d >= 1 is guaranteed by the AggregateInto dispatch and k >= 1 by the
	// constructor, so NewSketcher cannot fail.
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

// shortlistSize derives the JL candidate count for a selection of m rows:
// generous enough that the true winners land inside it with margin (the f
// Byzantine rows can at worst displace f honest candidates), clamped to n.
func (sk *Sketched) shortlistSize(m int) int {
	c := sk.shortlist
	if c <= 0 {
		c = 2*(m+sk.f) + 3
		if c < 8 {
			c = 8
		}
	}
	if c > sk.n {
		c = sk.n
	}
	if c < m {
		c = m
	}
	return c
}

// incAdvance updates the incremental state for this round's submissions:
// anchor a reference Gram if none matches the cohort shape, otherwise
// measure drift and fall back to a full recompute when the bounds have
// degraded past the drift threshold or the round cap.
func (sk *Sketched) incAdvance(grads [][]float64) {
	ig := sk.ig
	if !ig.Ready(len(grads), len(grads[0])) {
		// Inputs are rectangular and non-empty (checkAggInto), so Refresh
		// cannot fail.
		_ = ig.Refresh(grads)
		return
	}
	ig.Advance(grads)
	if ig.Rounds() >= sk.refreshEvery || ig.MaxDrift() > sk.driftFrac*ig.Scale() {
		_ = ig.Refresh(grads)
	}
}

// exactKrumScoreRow computes row i's exact Krum score directly from the
// gradients — Θ(n·d) — without materializing the full Gram. The distances
// come from the same vecmath.SqDist the exact kernel's Gram pass uses, so
// the score is bit-identical to krumScoresInto's. Recomputing from the
// gradients matters in incremental mode: squaring the state's cached
// square-rooted distances would lose low bits.
//
//dpbyz:hotpath
func exactKrumScoreRow(grads [][]float64, i, k int, row []float64) float64 {
	row = row[:0]
	for j := range grads {
		if j != i {
			row = append(row, vecmath.SqDist(grads[i], grads[j]))
		}
	}
	return krumScoreFromRow(row, k)
}

// jlCandidates computes sketch-space Krum scores for every row and returns
// the indices of the c best, ties broken by lexLess for permutation
// invariance. The returned slice aliases the scratch's intA.
//
//dpbyz:scratch
//dpbyz:hotpath
func (sk *Sketched) jlCandidates(s *scratch, grads [][]float64, m int) []int {
	n := sk.n
	sg := sk.sketchGram(s, grads)
	kk := n - sk.f - 2
	sscores := grow(&s.scoresB, n)
	row := grow(&s.row, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, sg[i][j])
			}
		}
		sscores[i] = krumScoreFromRow(row, kk)
	}
	c := sk.shortlistSize(m)
	idx := grow(&s.intA, n)
	for i := range idx {
		idx[i] = i
	}
	for a := 0; a < c; a++ {
		best := a
		for b := a + 1; b < n; b++ {
			if sscores[idx[b]] < sscores[idx[best]] ||
				(sscores[idx[b]] == sscores[idx[best]] && lexLess(grads[idx[b]], grads[idx[best]])) {
				best = b
			}
		}
		idx[a], idx[best] = idx[best], idx[a]
	}
	return idx[:c]
}

// incCandidates returns every row whose Krum-score lower bound does not
// exceed the m-th smallest upper bound. Soundness: exact(i) ∈ [lb(i), ub(i)]
// pointwise, so the m-th smallest exact score is at most the m-th smallest
// upper bound, and every true top-m row's lower bound sits at or below that
// threshold — the candidate set contains all true winners. Conversely a
// non-candidate's exact score strictly exceeds the threshold, so it can
// never displace a winner, not even on a tie. When the bounds are loose
// enough to admit more than half the cohort, the state refreshes (exact
// reference, zero drift) and the bounds are rebuilt tight. The returned
// slice aliases the scratch's intA.
//
//dpbyz:scratch
//dpbyz:hotpath
func (sk *Sketched) incCandidates(s *scratch, grads [][]float64, m int) []int {
	n := sk.n
	kk := n - sk.f - 2
	lb := grow(&s.scoresB, n)
	ub := grow(&s.scoresC, n)
	row := grow(&s.row, n)
	cand := grow(&s.intA, n)[:0]
	for attempt := 0; ; attempt++ {
		for i := 0; i < n; i++ {
			row = row[:0]
			for j := 0; j < n; j++ {
				if j != i {
					lo, _ := sk.ig.BoundSq(i, j)
					row = append(row, lo)
				}
			}
			lb[i] = krumScoreFromRow(row, kk)
			row = row[:0]
			for j := 0; j < n; j++ {
				if j != i {
					_, hi := sk.ig.BoundSq(i, j)
					row = append(row, hi)
				}
			}
			ub[i] = krumScoreFromRow(row, kk)
		}
		row = row[:n]
		copy(row, ub)
		vecmath.PartialSortAscending(row, m)
		thr := row[m-1]
		cand = cand[:0]
		for i := 0; i < n; i++ {
			if lb[i] <= thr {
				cand = append(cand, i)
			}
		}
		if attempt > 0 || len(cand) <= n/2 || sk.ig.Rounds() == 0 {
			return cand
		}
		// Candidate blow-up: the drift made the bounds useless this round.
		// Take the full-recompute escape hatch and rebuild them tight.
		_ = sk.ig.Refresh(grads)
	}
}

// aggregateKrum is the krum / multikrum path: shortlist candidates (JL
// sketch scores or incremental bounds), re-score only the shortlist with the
// exact kernel, then run the exact selection with non-candidates pinned to
// +Inf. Cost: Θ(n²·k + c·n·d) for JL, Θ(n·d + n² + c·n·d) per incremental
// round, against the exact Θ(n²·d).
//
//dpbyz:hotpath
func (sk *Sketched) aggregateKrum(dst []float64, grads [][]float64) error {
	s := getScratch()
	defer putScratch(s)
	n := sk.n
	var cand []int
	if sk.incremental {
		sk.incAdvance(grads)
		cand = sk.incCandidates(s, grads, sk.m)
	} else {
		cand = sk.jlCandidates(s, grads, sk.m)
	}
	k := n - sk.f - 2
	scores := grow(&s.scores, n)
	for i := range scores {
		scores[i] = math.Inf(1)
	}
	row := grow(&s.row, n-1)
	for _, i := range cand {
		scores[i] = exactKrumScoreRow(grads, i, k, row)
	}
	if sk.m == 1 {
		best := cand[0]
		for _, i := range cand[1:] {
			if scores[i] < scores[best] || (scores[i] == scores[best] && lexLess(grads[i], grads[best])) {
				best = i
			}
		}
		copy(dst, grads[best])
		return nil
	}
	selected := selectByScore(grow(&s.selA, sk.m), grow(&s.intB, n), grads, scores)
	return vecmath.MeanInto(dst, selected)
}

// cachedSqDist returns the exact squared distance between gradients i and j,
// computing it at most once per aggregation via the NaN-sentinel cache.
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

// aggregateBulyan runs Bulyan's iterative Krum selection with the per-
// iteration scores approximated (sketch Gram or incremental bounds) and only
// the iteration's candidates re-scored exactly, from a lazily filled exact-
// pair cache shared across iterations. In incremental mode every iteration's
// threshold is the minimum upper bound, so the candidate set provably
// contains the iteration's true winner and the selection is bit-identical to
// the exact rule; in JL mode the shortlist property is pinned by the battery.
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
	var sg [][]float64
	if sk.incremental {
		sk.incAdvance(grads)
	} else {
		sg = sk.sketchGram(s, grads)
	}
	cache := s.square2(n)
	for i := range cache {
		for j := range cache[i] {
			cache[i][j] = math.NaN()
		}
	}
	alive := grow(&s.intA, n)
	for i := range alive {
		alive[i] = i
	}
	lb := grow(&s.scoresB, n)
	ub := grow(&s.scoresC, n)
	exact := grow(&s.scores, n)
	cand := grow(&s.intB, n)
	row := grow(&s.row, n)
	selected := grow(&s.selB, theta)[:0]
	for len(selected) < theta {
		ma := len(alive)
		pick := 0
		if ma-f-2 >= 1 {
			k := ma - f - 2
			for ai := 0; ai < ma; ai++ {
				i := alive[ai]
				if sk.incremental {
					row = row[:0]
					for aj := 0; aj < ma; aj++ {
						if aj != ai {
							lo, _ := sk.ig.BoundSq(i, alive[aj])
							row = append(row, lo)
						}
					}
					lb[ai] = krumScoreFromRow(row, k)
					row = row[:0]
					for aj := 0; aj < ma; aj++ {
						if aj != ai {
							_, hi := sk.ig.BoundSq(i, alive[aj])
							row = append(row, hi)
						}
					}
					ub[ai] = krumScoreFromRow(row, k)
				} else {
					row = row[:0]
					for aj := 0; aj < ma; aj++ {
						if aj != ai {
							row = append(row, sg[i][alive[aj]])
						}
					}
					lb[ai] = krumScoreFromRow(row, k)
				}
			}
			nc := 0
			if sk.incremental {
				thr := math.Inf(1)
				for ai := 0; ai < ma; ai++ {
					if ub[ai] < thr {
						thr = ub[ai]
					}
				}
				for ai := 0; ai < ma; ai++ {
					if lb[ai] <= thr {
						cand[nc] = ai
						nc++
					}
				}
			} else {
				c := sk.shortlistSize(1)
				if c > ma {
					c = ma
				}
				for ai := 0; ai < ma; ai++ {
					cand[ai] = ai
				}
				for a := 0; a < c; a++ {
					best := a
					for b := a + 1; b < ma; b++ {
						if lb[cand[b]] < lb[cand[best]] ||
							(lb[cand[b]] == lb[cand[best]] && lexLess(grads[alive[cand[b]]], grads[alive[cand[best]]])) {
							best = b
						}
					}
					cand[a], cand[best] = cand[best], cand[a]
				}
				nc = c
			}
			for x := 0; x < nc; x++ {
				ai := cand[x]
				i := alive[ai]
				row = row[:0]
				for aj := 0; aj < ma; aj++ {
					if aj != ai {
						row = append(row, cachedSqDist(cache, grads, i, alive[aj]))
					}
				}
				exact[ai] = krumScoreFromRow(row, k)
			}
			pick = cand[0]
			for x := 1; x < nc; x++ {
				ai := cand[x]
				if exact[ai] < exact[pick] ||
					(exact[ai] == exact[pick] && lexLess(grads[alive[ai]], grads[alive[pick]])) {
					pick = ai
				}
			}
		} else {
			for ai := 1; ai < ma; ai++ {
				ni, np := vecmath.SqNorm(grads[alive[ai]]), vecmath.SqNorm(grads[alive[pick]])
				if ni < np || (ni == np && lexLess(grads[alive[ai]], grads[alive[pick]])) {
					pick = ai
				}
			}
		}
		selected = append(selected, grads[alive[pick]])
		alive = append(alive[:pick], alive[pick+1:]...)
	}
	return vecmath.MeanAroundMedianInto(dst, selected, beta)
}

// mdaCenters derives the number of candidate centers the sketched MDA path
// evaluates exactly.
func (sk *Sketched) mdaCenters() int {
	c := sk.shortlist
	if c <= 0 {
		c = sk.f + 3
		if c < 4 {
			c = 4
		}
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
// winner by exact (diameter, scatter) is averaged. JL mode only: MDA's
// subset objective has no per-row score for the incremental bounds to
// shortlist, so the constructor rejects that combination.
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
	cache := s.square2(n)
	for i := range cache {
		for j := range cache[i] {
			cache[i][j] = math.NaN()
		}
	}
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
