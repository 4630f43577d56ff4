package vecmath

// This file holds the blocked (4-way unrolled) vector kernels behind the
// batched gradient fast paths: DotBlocked scores one row, DotBlocked2 scores
// two rows against a shared vector in one sweep over it, and Axpy4
// accumulates four rows. The unrolling breaks the sequential dependence
// between adds so the CPU can keep several multiply-adds in flight; the
// reduction order of each kernel is fixed (independent of input values and
// of any parallelism setting), and DotBlocked2 keeps each row's sum in
// DotBlocked's order, so results are deterministic everywhere and the
// two-row kernel is bit-identical to two one-row calls.
//
// On an amd64 CPU with AVX2 the loops of DotBlocked2 and Axpy4 run as AVX2
// (kernels_amd64.s), lane for lane the operations of dotBlocked2Generic and
// axpy4Generic below, which are the body on every other CPU and GOARCH and
// the oracle of the differential tests.

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
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		d0 += x[0] * y[0]
		d1 += x[1] * y[1]
		d2 += x[2] * y[2]
		d3 += x[3] * y[3]
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
	if useAVX2 {
		return dotBlocked2AVX2(a, b0, b1)
	}
	return dotBlocked2Generic(a, b0, b1)
}

// dotBlocked2Generic is DotBlocked2's loop in Go.
//
//dpbyz:hotpath
func dotBlocked2Generic(a, b0, b1 []float64) (p, q float64) {
	assertSameLen(a, b0)
	assertSameLen(a, b1)
	var p0, p1, p2, p3, q0, q1, q2, q3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, z := a[i:i+4:i+4], b0[i:i+4:i+4], b1[i:i+4:i+4]
		p0 += x[0] * y[0]
		p1 += x[1] * y[1]
		p2 += x[2] * y[2]
		p3 += x[3] * y[3]
		q0 += x[0] * z[0]
		q1 += x[1] * z[1]
		q2 += x[2] * z[2]
		q3 += x[3] * z[3]
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
	if useAVX2 {
		axpy4AVX2(dst[:n], a0, x0, a1, x1, a2, x2, a3, x3)
		return
	}
	axpy4Generic(dst[:n], a0, x0, a1, x1, a2, x2, a3, x3)
}

// axpy4Generic is Axpy4's loop in Go, for vectors that all share d's
// length.
//
//dpbyz:hotpath
func axpy4Generic(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	assertSameLen(x0, d)
	assertSameLen(x1, d)
	assertSameLen(x2, d)
	assertSameLen(x3, d)
	for j := range d {
		d[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
	}
}
