package gar

import (
	"fmt"
	"math"

	"dpbyz/internal/vecmath"
)

// krumEta returns the η(n, f) constant from the paper's Prop. 2 proof:
// η = n − f + (f(n−f−2) + f²(n−f−1)) / (n − 2f − 2).
func krumEta(n, f int) float64 {
	nf, ff := float64(n), float64(f)
	return nf - ff + (ff*(nf-ff-2)+ff*ff*(nf-ff-1))/(nf-2*ff-2)
}

// krumScoresInto computes, for every gradient, the Krum score: the sum of
// squared distances to its n − f − 2 nearest neighbours (self excluded).
// The pairwise squared-distance (Gram) matrix and all score buffers come
// from the scratch, so the steady state allocates nothing; the returned
// slice aliases the scratch and is valid until the next krumScoresInto call
// on the same scratch.
//
//dpbyz:scratch
//dpbyz:hotpath
func krumScoresInto(s *scratch, grads [][]float64, f int) []float64 {
	n := len(grads)
	gram := s.square(n)
	// Inputs are pre-validated by checkAggInto and the gram view is sized
	// n×n by construction, so the kernel's dimension errors cannot fire.
	_ = vecmath.PairwiseSqDistsInto(gram, grads)
	scores := grow(&s.scores, n)
	row := grow(&s.row, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, gram[i][j])
			}
		}
		scores[i] = krumScoreFromRow(row, n-f-2)
	}
	return scores
}

// krumScoreFromRow reduces one gathered neighbour-distance row (self
// excluded, len n−1) to the Krum score: the ascending sum of its k smallest
// entries. The row used to be fully sorted, which dominates the per-round
// cost at n = 1024; the in-place partial selection keeps only the k-prefix
// ordered, and the ascending-prefix contract of PartialSortAscending makes
// the sum bit-identical to the sorted-row implementation (pinned by
// TestKrumScoresPartialSelectionBitIdentical). The row is clobbered.
//
//dpbyz:hotpath
func krumScoreFromRow(row []float64, k int) float64 {
	vecmath.PartialSortAscending(row, k)
	if k > len(row) {
		k = len(row)
	}
	var sum float64
	for _, d := range row[:k] {
		sum += d
	}
	return sum
}

// lexLess reports whether gradient a precedes b lexicographically. The
// Krum-family selections use it to break EXACT score ties: mutual nearest
// neighbours (and colluding Byzantine workers, who submit identical vectors)
// produce exactly equal scores, and breaking such ties by input position
// would make the rules depend on which worker sat in which slot. Comparing
// values keeps the selection a pure function of the gradient multiset
// (permutation invariance, enforced by the property battery).
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Krum is the rule of Blanchard et al. (2017): it outputs the single
// gradient with the smallest Krum score. It requires n > 2f + 2 and the
// paper lists k_F(n, f) = 1/√(2η(n, f)).
type Krum struct{ ruleBase }

var (
	_ GAR            = (*Krum)(nil)
	_ IntoAggregator = (*Krum)(nil)
)

// NewKrum returns the Krum rule.
func NewKrum(n, f int) (*Krum, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if n <= 2*f+2 {
		return nil, fmt.Errorf("%w: krum needs n > 2f+2 (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	k := &Krum{}
	k.bind("krum", n, f, k)
	return k, nil
}

// KF implements GAR: 1/√(2η(n, f)).
func (k *Krum) KF() float64 { return 1 / math.Sqrt(2*krumEta(k.n, k.f)) }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (k *Krum) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, k.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	scores := krumScoresInto(s, grads, k.f)
	best := 0
	for i, sc := range scores {
		if sc < scores[best] || (sc == scores[best] && lexLess(grads[i], grads[best])) {
			best = i
		}
	}
	copy(dst, grads[best])
	return nil
}

// MultiKrum averages the m gradients with the smallest Krum scores
// (Blanchard et al. 2017, §4). With m = 1 it degenerates to Krum.
type MultiKrum struct {
	ruleBase
	m int
}

var (
	_ GAR            = (*MultiKrum)(nil)
	_ IntoAggregator = (*MultiKrum)(nil)
)

// NewMultiKrum returns Multi-Krum selecting the m best-scored gradients.
// The canonical choice is m = n − f − 2.
func NewMultiKrum(n, f, m int) (*MultiKrum, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if n <= 2*f+2 {
		return nil, fmt.Errorf("%w: multi-krum needs n > 2f+2 (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	if m < 1 || m > n-f-2 {
		return nil, fmt.Errorf("gar: multi-krum m = %d out of range [1, %d]", m, n-f-2)
	}
	mk := &MultiKrum{m: m}
	mk.bind("multikrum", n, f, mk)
	return mk, nil
}

// KF implements GAR: Multi-Krum inherits Krum's constant.
func (mk *MultiKrum) KF() float64 { return 1 / math.Sqrt(2*krumEta(mk.n, mk.f)) }

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (mk *MultiKrum) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, mk.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	scores := krumScoresInto(s, grads, mk.f)
	selected := selectByScore(grow(&s.selA, mk.m), grow(&s.intA, mk.n), grads, scores)
	return vecmath.MeanInto(dst, selected)
}

// selectByScore fills out with the len(out) gradients carrying the smallest
// scores, using idx (len(grads)) as index scratch. Exact score ties break
// lexicographically on the gradient values (see lexLess), so the selection
// is a pure function of the gradient multiset — deterministic regardless of
// worker order and of the scratch's prior contents. Partial selection sort:
// m and n are both small (tens).
//
//dpbyz:hotpath
func selectByScore(out [][]float64, idx []int, grads [][]float64, scores []float64) [][]float64 {
	n := len(grads)
	for i := range idx {
		idx[i] = i
	}
	m := len(out)
	for a := 0; a < m; a++ {
		best := a
		for b := a + 1; b < n; b++ {
			if scores[idx[b]] < scores[idx[best]] ||
				(scores[idx[b]] == scores[idx[best]] && lexLess(grads[idx[b]], grads[idx[best]])) {
				best = b
			}
		}
		idx[a], idx[best] = idx[best], idx[a]
		out[a] = grads[idx[a]]
	}
	return out
}

// Bulyan is the rule of El Mhamdi et al. (2018): it first runs Krum
// iteratively to select θ = n − 2f gradients, then outputs, per coordinate,
// the average of the β = θ − 2f values closest to the coordinate-wise
// median of the selection. It requires n ≥ 4f + 3 and shares Krum's
// k_F(n, f) in the paper's Table 1.
type Bulyan struct{ ruleBase }

var (
	_ GAR            = (*Bulyan)(nil)
	_ IntoAggregator = (*Bulyan)(nil)
)

// NewBulyan returns the Bulyan rule.
func NewBulyan(n, f int) (*Bulyan, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if n < 4*f+3 {
		return nil, fmt.Errorf("%w: bulyan needs n >= 4f+3 (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	b := &Bulyan{}
	b.bind("bulyan", n, f, b)
	return b, nil
}

// KF implements GAR: the paper groups Bulyan with Krum.
func (b *Bulyan) KF() float64 { return 1 / math.Sqrt(2*krumEta(b.n, b.f)) }

// AggregateInto implements IntoAggregator.
//
// The iterative Krum selection runs over ONE pairwise Gram computed up
// front and deflates it in index space: removing the round's winner from an
// `alive` index set and re-gathering score rows from the full matrix yields
// exactly the distances the per-iteration recompute used to produce (same
// pairs, same SqDist), so the restructure is bit-identical while cutting the
// selection phase from Θ(θ·n²·d) to Θ(n²·d + θ·n²) — at θ = n − 2f the old
// shape was cubic in n for the distance work alone.
//
//dpbyz:hotpath
func (b *Bulyan) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, b.n); err != nil {
		return err
	}
	s := getScratch()
	defer putScratch(s)
	theta := b.n - 2*b.f
	beta := theta - 2*b.f
	if beta < 1 {
		beta = 1
	}
	gram := s.square(b.n)
	// Pre-validated inputs and an n×n gram view: the dimension errors
	// cannot fire.
	_ = vecmath.PairwiseSqDistsInto(gram, grads)
	// Selection phase: repeatedly pick the best Krum candidate among the
	// alive gradients, as long as the alive count supports a Krum
	// neighbourhood; fall back to minimum-norm selection for the tail.
	alive := grow(&s.intA, b.n)
	for i := range alive {
		alive[i] = i
	}
	scores := grow(&s.scores, b.n)
	row := grow(&s.row, b.n-1)
	selected := grow(&s.selB, theta)[:0]
	for len(selected) < theta {
		m := len(alive)
		pick := 0
		if m-b.f-2 >= 1 {
			k := m - b.f - 2
			for ai, i := range alive {
				row = row[:0]
				for aj, j := range alive {
					if aj != ai {
						row = append(row, gram[i][j])
					}
				}
				scores[ai] = krumScoreFromRow(row, k)
			}
			for ai := 1; ai < m; ai++ {
				if scores[ai] < scores[pick] ||
					(scores[ai] == scores[pick] && lexLess(grads[alive[ai]], grads[alive[pick]])) {
					pick = ai
				}
			}
		} else {
			pick = minNormAlive(grads, alive)
		}
		selected = append(selected, grads[alive[pick]])
		alive = append(alive[:pick], alive[pick+1:]...)
	}
	return vecmath.MeanAroundMedianInto(dst, selected, beta)
}

// minNormAlive is Bulyan's tail selection, used once too few rows are alive
// to support a Krum neighbourhood: the position in alive of the gradient
// with the smallest norm, ties broken by lexLess.
//
//dpbyz:hotpath
func minNormAlive(grads [][]float64, alive []int) int {
	pick := 0
	for ai := 1; ai < len(alive); ai++ {
		ni, np := vecmath.SqNorm(grads[alive[ai]]), vecmath.SqNorm(grads[alive[pick]])
		if ni < np || (ni == np && lexLess(grads[alive[ai]], grads[alive[pick]])) {
			pick = ai
		}
	}
	return pick
}
