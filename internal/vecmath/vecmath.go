// Package vecmath provides the dense float64 vector and small-matrix
// primitives that every other package in this repository builds on.
//
// All functions operate on plain []float64 slices. Functions that write
// results into a destination slice (the *Into variants) never allocate;
// the plain variants allocate a fresh result. Unless stated otherwise,
// functions panic only on programmer error (mismatched lengths), mirroring
// the behaviour of the standard library's copy/append contract for slices.
//
//dpbyz:deterministic
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned by checked entry points when two vectors
// that must share a dimension do not.
var ErrDimensionMismatch = errors.New("vecmath: dimension mismatch")

// assertSameLen panics when the two vectors differ in length. Internal
// helpers use it because a mismatch is always a programming error in this
// codebase (all vectors in one training run share the model dimension d).
//
// It also carries weight in the kernels: inlined in front of a loop it is
// what tells the compiler len(a) == len(b), so indexing b by a's index needs
// no bounds check. go build -gcflags=-d=ssa/check_bce shows none in the
// loops of Dot, SqDist and sqDist4x2Generic. The 4-blocked bodies (DotBlocked,
// dotBlocked2Generic, axpyGeneric) reslice each block, x := a[i:i+4:i+4]: that
// costs one slice check per block on the first vector and none on the
// others or on x[0..3], where indexing a[i+1] … a[i+3] cost four per block.
// Their scalar tails keep one check per element. Do not "clean it up" into a
// check the compiler cannot see through.
func assertSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: length mismatch %d != %d", len(a), len(b)))
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Fill sets every coordinate of v to x and returns v.
//
//dpbyz:hotpath
func Fill(v []float64, x float64) []float64 {
	for i := range v {
		v[i] = x
	}
	return v
}

// SubInto stores a - b into dst and returns dst.
//
//dpbyz:hotpath
func SubInto(dst, a, b []float64) []float64 {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// ScaleInPlace multiplies v by s in place and returns v. On an amd64 CPU
// with AVX2 the loop is scaleInPlaceAVX2 (kernels_amd64.s), one VMULPD per
// four coordinates, the bits of scaleInPlaceGeneric.
//
//dpbyz:hotpath
func ScaleInPlace(s float64, v []float64) []float64 {
	if useAVX2 {
		scaleInPlaceAVX2(s, v)
		return v
	}
	scaleInPlaceGeneric(s, v)
	return v
}

// scaleInPlaceGeneric is ScaleInPlace's loop in Go.
//
//dpbyz:hotpath
func scaleInPlaceGeneric(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// Axpy performs dst += alpha * x in place and returns dst. Each coordinate
// is updated independently, so the AVX2 loop on an amd64 CPU that has it
// (axpyAVX2, kernels_amd64.s) and the four-wide unrolled Go loop
// (axpyGeneric) are bit-identical to the plain loop. x and dst may be the
// same slice but must not overlap otherwise.
//
//dpbyz:hotpath
func Axpy(alpha float64, x, dst []float64) []float64 {
	assertSameLen(x, dst)
	if useAVX2 {
		axpyAVX2(alpha, x, dst)
		return dst
	}
	axpyGeneric(alpha, x, dst)
	return dst
}

// axpyGeneric is Axpy's loop in Go.
//
//dpbyz:hotpath
func axpyGeneric(alpha float64, x, dst []float64) {
	assertSameLen(x, dst)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs, ds := x[i:i+4:i+4], dst[i:i+4:i+4]
		ds[0] += alpha * xs[0]
		ds[1] += alpha * xs[1]
		ds[2] += alpha * xs[2]
		ds[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// Dot returns the inner product <a, b>.
//
//dpbyz:hotpath
func Dot(a, b []float64) float64 {
	assertSameLen(a, b)
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SqNorm returns the squared Euclidean norm of v.
//
//dpbyz:hotpath
func SqNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
//
//dpbyz:hotpath
func Norm(v []float64) float64 {
	return math.Sqrt(SqNorm(v))
}

// Dist returns the Euclidean distance between a and b.
//
//dpbyz:hotpath
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}

// SqDist returns the squared Euclidean distance between a and b.
//
//dpbyz:hotpath
func SqDist(a, b []float64) float64 {
	assertSameLen(a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ClipL2 scales v in place so that its L2 norm does not exceed max.
// It returns v. Vectors already inside the ball are left untouched; this is
// exactly the gradient-clipping operator from the paper (Assumption 1).
// A non-positive max clips to the zero vector.
//
//dpbyz:hotpath
func ClipL2(v []float64, max float64) []float64 {
	if max <= 0 {
		return Fill(v, 0)
	}
	n := Norm(v)
	if n > max {
		ScaleInPlace(max/n, v)
	}
	return v
}

// Mean returns the coordinate-wise mean of vs. It returns an error when vs
// is empty or the vectors disagree on dimension.
func Mean(vs [][]float64) ([]float64, error) {
	if len(vs) == 0 {
		return nil, errors.New("vecmath: mean of zero vectors")
	}
	out := make([]float64, len(vs[0]))
	if err := MeanInto(out, vs); err != nil {
		return nil, err
	}
	return out, nil
}

// CoordMedianInto stores the coordinate-wise median of vs into dst without
// allocating gradient-sized scratch. It returns an error when vs is empty or
// the vectors and dst disagree on dimension.
//
// Non-finite inputs are ordered, not rejected: on every coordinate NaN sorts
// before −Inf (the sort.Float64s order), so fewer than n/2 rows submitting
// NaN or ±Inf cannot make the median non-finite or move it outside the range
// of the remaining rows. Callers rely on this (the server does not filter
// Byzantine submissions before the GAR); TestNonFiniteSubmissionsAreContained
// in internal/gar pins it.
//
//dpbyz:hotpath
func CoordMedianInto(dst []float64, vs [][]float64) error {
	if _, err := checkDst(dst, vs); err != nil {
		return err
	}
	reduceSortedColumns(dst, vs, colReduce{op: opMedian})
	return nil
}

// CoordStd returns the coordinate-wise (population) standard deviation of
// vs. This is the σ_t statistic used by the "A Little Is Enough" attack.
func CoordStd(vs [][]float64) ([]float64, error) {
	mean, err := Mean(vs)
	if err != nil {
		return nil, err
	}
	d := len(mean)
	out := make([]float64, d)
	for _, v := range vs {
		for i, x := range v {
			dev := x - mean[i]
			out[i] += dev * dev
		}
	}
	inv := 1.0 / float64(len(vs))
	for i := range out {
		out[i] = math.Sqrt(out[i] * inv)
	}
	return out, nil
}

// AllFinite reports whether every coordinate of v is finite (no NaN/±Inf).
//
//dpbyz:hotpath
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b agree coordinate-wise within tol. It is
// the comparison the tests of seven packages share.
//
//dpbyz:testseam
func ApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
