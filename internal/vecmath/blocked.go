package vecmath

// This file holds the blocked (4-way unrolled) vector kernels behind the
// batched gradient fast paths: DotBlocked scores one row, DotBlocked2 scores
// two rows against a shared vector in one sweep over it, and Axpy4
// accumulates four rows. The unrolling breaks the sequential dependence
// between adds so the CPU can keep several FMAs in flight; the reduction
// order of each kernel is fixed (independent of input values and of any
// parallelism setting), and DotBlocked2 keeps each row's sum in
// DotBlocked's order, so results are deterministic everywhere and the
// two-row kernel is bit-identical to two one-row calls.

// DotBlocked returns the inner product <a, b> accumulated in four
// interleaved partial sums. The reduction order differs from Dot, so the two
// agree only up to floating-point rounding; use one or the other
// consistently within a computation that must be reproducible.
//
//dpbyz:hotpath
func DotBlocked(a, b []float64) float64 {
	assertSameLen(a, b)
	var d0, d1, d2, d3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 += a[i] * b[i]
		d1 += a[i+1] * b[i+1]
		d2 += a[i+2] * b[i+2]
		d3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		d0 += a[i] * b[i]
	}
	return (d0 + d1) + (d2 + d3)
}

// DotBlocked2 returns DotBlocked(a, b0) and DotBlocked(a, b1), bit for bit,
// from one sweep over a: each row keeps DotBlocked's four partial sums, its
// tail and its final combine, so only the interleaving across the two rows
// differs. (A NaN result is NaN in both, though Go does not fix which of
// two NaN payloads an add propagates.) The per-sample scores of the batched
// gradients and losses read the shared parameter vector once per pair of
// rows this way.
//
//dpbyz:hotpath
func DotBlocked2(a, b0, b1 []float64) (float64, float64) {
	assertSameLen(a, b0)
	assertSameLen(a, b1)
	var p0, p1, p2, p3, q0, q1, q2, q3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		p0 += a0 * b0[i]
		p1 += a1 * b0[i+1]
		p2 += a2 * b0[i+2]
		p3 += a3 * b0[i+3]
		q0 += a0 * b1[i]
		q1 += a1 * b1[i+1]
		q2 += a2 * b1[i+2]
		q3 += a3 * b1[i+3]
	}
	for ; i < len(a); i++ {
		p0 += a[i] * b0[i]
		q0 += a[i] * b1[i]
	}
	return (p0 + p1) + (p2 + p3), (q0 + q1) + (q2 + q3)
}

// Axpy4 performs dst += a0·x0 + a1·x1 + a2·x2 + a3·x3 in one pass: the
// batched gradient kernels accumulate four samples per sweep, loading and
// storing each dst coordinate once instead of four times. The four vectors
// normally share dst's length; if they disagree (dimension-confused
// inputs), it degrades to four independent Axpy calls.
//
//dpbyz:hotpath
func Axpy4(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	n := len(x0)
	if len(x1) != n || len(x2) != n || len(x3) != n || len(dst) < n {
		Axpy(a0, x0, dst[:len(x0)])
		Axpy(a1, x1, dst[:len(x1)])
		Axpy(a2, x2, dst[:len(x2)])
		Axpy(a3, x3, dst[:len(x3)])
		return
	}
	d := dst[:n]
	for j := 0; j < n; j++ {
		d[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
	}
}
