package gar

import (
	"fmt"
	"math"

	"dpbyz/internal/vecmath"
)

// DefaultMDAMaxEnumerate bounds the number of candidate subsets the exact
// MDA search will enumerate before falling back to the greedy heuristic.
// C(11, 5) = 462 for the paper's setting, far below this bound.
const DefaultMDAMaxEnumerate = 200_000

// MDA is minimum-diameter averaging (El Mhamdi et al. 2020): it outputs the
// average of the (n − f)-subset of gradients with the smallest diameter
// (maximum pairwise distance). The paper highlights MDA as the GAR with the
// largest known VN-ratio bound, k_F(n, f) = (n − f)/(√8·f).
//
// Finding the minimum-diameter subset is combinatorial; MDA enumerates all
// C(n, n−f) subsets when that count is at most MaxEnumerate and otherwise
// uses a near-neighbourhood greedy heuristic (for each gradient, the
// candidate subset of it plus its n−f−1 nearest neighbours).
type MDA struct {
	ruleBase
	// MaxEnumerate caps the exact search; exposed for the ablation bench,
	// where 1 forces the greedy heuristic (C(n, n−f) > 1 whenever f ≥ 1).
	MaxEnumerate int
}

var (
	_ GAR            = (*MDA)(nil)
	_ IntoAggregator = (*MDA)(nil)
)

// NewMDA returns the MDA rule. It requires n > 2f (a majority of honest
// workers), the standard condition for diameter-based filtering.
func NewMDA(n, f int) (*MDA, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if 2*f >= n {
		return nil, fmt.Errorf("%w: mda needs 2f < n (n=%d, f=%d)",
			ErrBadByzantineCount, n, f)
	}
	m := &MDA{MaxEnumerate: DefaultMDAMaxEnumerate}
	m.bind("mda", n, f, m)
	return m, nil
}

// KF implements GAR: (n − f)/(√8·f); +Inf when f = 0 (nothing to tolerate).
func (m *MDA) KF() float64 {
	if m.f == 0 {
		return math.Inf(1)
	}
	return float64(m.n-m.f) / (math.Sqrt(8) * float64(m.f))
}

// AggregateInto implements IntoAggregator.
//
//dpbyz:hotpath
func (m *MDA) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, m.n); err != nil {
		return err
	}
	if m.f == 0 {
		return vecmath.MeanInto(dst, grads)
	}
	s := getScratch()
	defer putScratch(s)
	gram := s.square(m.n)
	// Inputs are pre-validated by checkAggInto and the gram view is sized
	// n×n by construction, so the kernel's dimension errors cannot fire.
	_ = vecmath.PairwiseSqDistsInto(gram, grads)
	k := m.n - m.f
	var subset []int
	if binomialAtMost(m.n, k, m.MaxEnumerate) {
		subset = minDiameterExact(gram, m.n, k, s)
	} else {
		subset = minDiameterGreedy(gram, m.n, k, s)
	}
	chosen := grow(&s.selA, k)
	for i, j := range subset {
		chosen[i] = grads[j]
	}
	return vecmath.MeanInto(dst, chosen)
}

// binomialAtMost reports whether C(n, k) <= limit without overflowing.
func binomialAtMost(n, k, limit int) bool {
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 1; i <= k; i++ {
		c *= float64(n - k + i)
		c /= float64(i)
		if c > float64(limit) {
			return false
		}
	}
	return true
}

// mdaSearch carries the state of the exact branch-and-bound subset search.
// A struct with methods (rather than a recursive closure) keeps the search
// allocation-free: the receiver lives on the caller's stack and the index
// buffers come from the scratch pool.
//
//dpbyz:scratch
type mdaSearch struct {
	dists    [][]float64
	n, k     int
	best     []int
	cur      []int
	bestDiam float64
	bestScat float64
}

// minDiameterExact enumerates every k-subset of [0, n) and returns one with
// the minimal squared diameter, with branch-and-bound pruning on the
// running diameter. Ties on the diameter are broken by the subset's total
// scatter (sum of pairwise squared distances), which makes the selection
// invariant to the input order: two distinct subsets sharing both diameter
// and scatter only occur on measure-zero inputs. The returned index slice
// aliases the scratch.
//
//dpbyz:scratch
func minDiameterExact(dists [][]float64, n, k int, s *scratch) []int {
	srch := mdaSearch{
		dists:    dists,
		n:        n,
		k:        k,
		best:     grow(&s.intA, k)[:0],
		cur:      grow(&s.intB, k)[:0],
		bestDiam: math.Inf(1),
		bestScat: math.Inf(1),
	}
	srch.recurse(0, 0, 0)
	return srch.best
}

//
//dpbyz:hotpath
func (m *mdaSearch) recurse(start int, curDiam, curScatter float64) {
	if curDiam > m.bestDiam {
		return // prune: cannot improve
	}
	if len(m.cur) == m.k {
		if curDiam < m.bestDiam || (curDiam == m.bestDiam && curScatter < m.bestScat) {
			m.bestDiam = curDiam
			m.bestScat = curScatter
			m.best = append(m.best[:0], m.cur...)
		}
		return
	}
	// Not enough remaining elements to complete the subset.
	if m.n-start < m.k-len(m.cur) {
		return
	}
	for i := start; i < m.n; i++ {
		d, sc := curDiam, curScatter
		for _, j := range m.cur {
			dij := m.dists[i][j]
			sc += dij
			if dij > d {
				d = dij
			}
		}
		m.cur = append(m.cur, i)
		m.recurse(i+1, d, sc)
		m.cur = m.cur[:len(m.cur)-1]
	}
}

// minDiameterGreedy evaluates, for each gradient i, the candidate subset
// {i} ∪ {its k−1 nearest neighbours} and returns the candidate with the
// smallest diameter. O(n²·k) after the O(n²·d) distance matrix. The
// returned index slice aliases the scratch.
//
//dpbyz:scratch
func minDiameterGreedy(dists [][]float64, n, k int, s *scratch) []int {
	bestDiam := math.Inf(1)
	bestScatter := math.Inf(1)
	order := grow(&s.intA, n)
	best := grow(&s.intB, k)[:0]
	for i := 0; i < n; i++ {
		// Select indices of the k nearest (including i itself, distance 0).
		for j := range order {
			order[j] = j
		}
		row := dists[i]
		// Partial selection sort of the k smallest distances to i.
		for a := 0; a < k; a++ {
			minJ := a
			for b := a + 1; b < n; b++ {
				if row[order[b]] < row[order[minJ]] {
					minJ = b
				}
			}
			order[a], order[minJ] = order[minJ], order[a]
		}
		cand := order[:k]
		var diam, scatter float64
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				d := dists[cand[a]][cand[b]]
				scatter += d
				if d > diam {
					diam = d
				}
			}
		}
		// Same diameter/scatter tie-break as the exact search, for
		// order-independent selection.
		if diam < bestDiam || (diam == bestDiam && scatter < bestScatter) {
			bestDiam = diam
			bestScatter = scatter
			best = append(best[:0], cand...)
		}
	}
	return best
}
