package gar

import (
	"fmt"
	"math"

	"dpbyz/internal/randx"
)

// DefaultBucketSize is the bucket width used when a caller enables
// bucketing without choosing s explicitly.
const DefaultBucketSize = 2

// Bucketed wraps an inner rule with the bucketing / pre-aggregation
// technique (Karimireddy et al., 2022; ROADMAP "hierarchical aggregation"):
// the n workers are dealt once, by a seed-derived permutation, into
// m = ⌈n/s⌉ buckets of at most s members; each round the submissions inside
// a bucket are averaged and the inner rule — constructed for (m, f), since
// in the worst case every Byzantine worker contaminates a distinct bucket —
// aggregates the m bucket means. Averaging is O(n·d), so the quadratic
// rules (Krum family, MDA) drop from O(n²·d) to O((n/s)²·d), and
// intra-bucket averaging shrinks the honest variance that heterogeneous
// partitions inflate, which is the known repair for (α, f)-resilience under
// non-IID data.
//
// The worker→bucket assignment is fixed at construction: re-dealing per
// round would make the rule stateful and break bit-identical resume, and a
// fixed deal keeps Aggregate a pure function. The price is that Bucketed is
// NOT permutation-invariant across worker indices (bucket composition
// depends on who sits where); the property battery covers it with the
// translation-equivariance, outlier-clipping and empirical-(α,f) tests plus
// seed determinism instead.
type Bucketed struct {
	ruleBase
	size  int
	seed  uint64
	inner GAR
	// assign maps worker index → bucket index; counts holds each bucket's
	// member count (the last bucket may be short when s does not divide n).
	assign []int
	counts []int
	m      int
}

var (
	_ GAR            = (*Bucketed)(nil)
	_ IntoAggregator = (*Bucketed)(nil)
)

// NewBucketed builds the bucketed wrapper around the registry rule named
// inner. The inner rule is constructed for (⌈n/s⌉, f), so its own n-vs-f
// constraint must hold at the bucket count — NewBucketed fails otherwise.
// size 0 selects DefaultBucketSize; size 1 degenerates to the flat rule
// shape (every bucket a single worker). The seed fixes the deterministic
// worker→bucket deal.
func NewBucketed(inner string, n, f, size int, seed uint64) (*Bucketed, error) {
	if err := checkNF(n, f); err != nil {
		return nil, err
	}
	if size == 0 {
		size = DefaultBucketSize
	}
	if size < 0 || size > n {
		return nil, fmt.Errorf("%w: bucket size %d outside [1, n=%d]", ErrBadWorkerCount, size, n)
	}
	m := (n + size - 1) / size
	in, err := New(inner, m, f)
	if err != nil {
		return nil, fmt.Errorf("gar: bucketed(%s) with %d buckets of %d over n=%d: %w",
			inner, m, size, n, err)
	}
	b := &Bucketed{
		size: size, seed: seed, inner: in, m: m,
		assign: make([]int, n),
		counts: make([]int, m),
	}
	b.bind("bucketed("+in.Name()+")", n, f, b)
	// Deal a seed-derived shuffle into consecutive buckets of width s:
	// bucket k owns positions [k·s, (k+1)·s) of the permutation.
	perm := randx.New(seed).Derive('b', 'u', 'c', 'k').PermInto(make([]int, n))
	for pos, wkr := range perm {
		k := pos / size
		b.assign[wkr] = k
		b.counts[k]++
	}
	return b, nil
}

// Buckets returns the bucket count m = ⌈n/s⌉.
func (b *Bucketed) Buckets() int { return b.m }

// Inner returns the wrapped rule (constructed for (m, f)).
func (b *Bucketed) Inner() GAR { return b.inner }

// Assignment returns a copy of the worker→bucket map.
func (b *Bucketed) Assignment() []int {
	out := make([]int, len(b.assign))
	copy(out, b.assign)
	return out
}

// KF scales the inner rule's VN-ratio constant by √s: averaging s
// independent honest gradients divides their variance by the (minimum)
// bucket fill, so the Eq. 2 condition k_F·√(VN) < 1 holds for the wrapped
// rule whenever the inner constant allows √s times the deviation. The last
// bucket may be short, so the conservative scale uses the smallest count.
func (b *Bucketed) KF() float64 {
	inner := b.inner.KF()
	if inner == 0 {
		return 0
	}
	minFill := b.counts[0]
	for _, c := range b.counts[1:] {
		if c < minFill {
			minFill = c
		}
	}
	return inner * math.Sqrt(float64(minFill))
}

// AggregateInto implements IntoAggregator: bucket means are accumulated in
// pooled m×d scratch, then handed to the inner rule's own pooled fast path
// (the pool issues a second bundle while ours is checked out).
//
//dpbyz:hotpath
func (b *Bucketed) AggregateInto(dst []float64, grads [][]float64) error {
	if err := checkAggInto(dst, grads, b.n); err != nil {
		return err
	}
	d := len(dst)
	s := getScratch()
	defer putScratch(s)
	flat := grow(&s.bucketFlat, b.m*d)
	rows := grow(&s.selA, b.m)
	for k := range rows {
		rows[k] = flat[k*d : (k+1)*d]
	}
	for i := range flat {
		flat[i] = 0
	}
	for w, g := range grads {
		row := rows[b.assign[w]]
		for j, v := range g {
			row[j] += v
		}
	}
	for k, row := range rows {
		inv := 1 / float64(b.counts[k])
		for j := range row {
			row[j] *= inv
		}
	}
	return AggregateInto(b.inner, dst, rows)
}
