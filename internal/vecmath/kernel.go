package vecmath

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// errEmptyInput is returned by the *Into kernels for an empty input matrix.
var errEmptyInput = errors.New("vecmath: empty input matrix")

// This file is the shared aggregation engine: every coordinate-wise robust
// primitive (median, trimmed mean, mean-around-median) is one colReduce op
// over the same sorted-column kernel, and the distance-based rules share one
// parallel pairwise squared-distance (Gram) kernel. The kernels split the d
// coordinates (respectively the n(n-1)/2 pairs) across up to GOMAXPROCS
// goroutines with per-worker pooled scratch; below the parallel grain they
// run inline with zero allocations. Results are bit-identical to the
// sequential path because each output element is computed by exactly one
// worker with the same operation order.
//
// The sorted-column kernel works on a tile of T consecutive coordinates at a
// time, T derived from n so the n×T tile stays in L1 (tileCols):
//
//  1. gather: copy vs[i][j0:j0+T] into row i of a pooled row-major tile —
//     n sequential reads instead of T strided n-way gathers;
//  2. sort: apply the compare-exchanges of Batcher's merge-exchange network
//     row against row with min/max, so every column of the tile is sorted by
//     the same data-independent instruction stream (a per-column
//     sort.Float64s spends most of its time in mispredicted branches);
//     afterwards row r holds the r-th order statistic of every column. On
//     an AVX2 CPU each compare-exchange (minMaxRows) runs as VMINPD /
//     VMAXPD, four columns per instruction. Those differ from Go's min/max
//     only on ±0 and NaN, which the guard below keeps out of every sorted
//     tile, so they give min/max's bits;
//  3. reduce row-wise, with the additions of apply in the same order.
//
// The guard: gatherTile notes whether the tile holds a NaN or a −0, and such
// a tile is handed, for its columns only, to the per-column loop the tiles
// replaced (reduceSortedColumnsRef). On every other tile < is a total order
// on bit patterns, so every correct sort yields the same array and the
// tiled result is bit-identical to the reference on every input — not
// "equal up to the sign of zero". It is also what keeps NaN ordered first
// (min/max would propagate it down the column), which the rules' tolerance
// of Byzantine NaN submissions rests on. A worker that plants NaN or −0 in
// every tile only buys the reference's speed.
//
// The pairwise kernel is Θ(n²·d) and its unit of work is one tile: the
// distances from four rows to two points, one sweep over the coordinates
// (sqDist4x2). A single pair is one serial chain of d dependent additions,
// so a per-pair loop runs at the adder's latency with the other
// floating-point ports idle; the tile's eight pairs are eight independent
// chains that overlap, each row element is loaded once for both points and
// each point element once for the four rows. Rows are dealt to workers in
// pairs (j, j+1), and one sweep of the tile over rows 0..j yields both
// points' distances to every lower row, plus the pair (j, j+1) itself.
// Where fewer than four rows are left the call repeats the last of them,
// and where j is the last row the second point is j again; the repeated
// lanes and row j's distance to itself are computed and dropped, so there
// is no second code path for the tails. What is blocked is the set of
// pairs, never a sum: each accumulator adds its own pair's squares in
// ascending coordinate order with the lower row as the minuend, the
// operations and the order of SqDist, so every entry carries
// SqDist(vs[i], vs[j])'s bit pattern for i < j on every input — ±Inf, −0
// and subnormals included, and NaN exactly where SqDist gives NaN (which
// payload survives when two different NaNs meet in a sum is the compiler's
// operand order, in SqDist as much as here). Nothing is reassociated, hence
// nothing to guard and no fallback path (unlike the sort above, where the
// order of equal keys had to be defended). The owner of rows j and j+1
// writes their entries below the diagonal and the mirrors, so each pair is
// still written by exactly one worker.

// Column-reduction op codes.
const (
	opMedian = iota
	opTrimmedMean
	opMeamed
)

// colReduce selects and parameterizes the per-coordinate reduction applied
// to each sorted column. A plain struct (rather than a closure) keeps the
// inline path free of allocations.
type colReduce struct {
	op   int
	trim int // opTrimmedMean: number of values dropped at each end
	m    int // opMeamed: window size around the median
}

// apply reduces one sorted column to its output coordinate.
//
//dpbyz:hotpath
func (r colReduce) apply(sorted []float64) float64 {
	switch r.op {
	case opTrimmedMean:
		n := len(sorted)
		var s float64
		for _, x := range sorted[r.trim : n-r.trim] {
			s += x
		}
		return s / float64(n-2*r.trim)
	case opMeamed:
		return meamedSorted(sorted, r.m)
	default:
		return MedianSorted(sorted)
	}
}

// MedianSorted returns the median of an already-sorted column. For even
// counts it returns the average of the two middle elements. This is the one
// place the median definition lives.
//
//dpbyz:hotpath
func MedianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// meamedSorted returns the average of the m values of a sorted column
// closest to its median (the "Meamed" primitive of Xie et al. 2018). The
// column is sorted, so the m nearest values form a contiguous window; the
// window is slid to its minimum-width position.
//
//dpbyz:hotpath
func meamedSorted(sorted []float64, m int) float64 {
	n := len(sorted)
	med := MedianSorted(sorted)
	bestStart := 0
	bestWidth := windowWidth(sorted, med, 0, m)
	for s := 1; s+m <= n; s++ {
		if w := windowWidth(sorted, med, s, m); w < bestWidth {
			bestWidth = w
			bestStart = s
		}
	}
	var sum float64
	for _, x := range sorted[bestStart : bestStart+m] {
		sum += x
	}
	return sum / float64(m)
}

// windowWidth returns the maximum distance from med to the endpoints of the
// window col[s : s+m] of a sorted column.
//
//dpbyz:hotpath
func windowWidth(col []float64, med float64, s, m int) float64 {
	lo := med - col[s]
	hi := col[s+m-1] - med
	if lo > hi {
		return lo
	}
	return hi
}

// checkRect validates that vs is a non-empty rectangular matrix and returns
// the shared dimension. Hoisting this single pass out of the per-coordinate
// loops removes the O(n·d) redundant length checks the kernels used to pay.
func checkRect(vs [][]float64) (int, error) {
	d := len(vs[0])
	for _, v := range vs {
		if len(v) != d {
			return 0, ErrDimensionMismatch
		}
	}
	return d, nil
}

// reduceSortedColumns writes red.apply(sorted column j) into dst[j] for
// every coordinate j, splitting the coordinate range across workers when
// the n·d work calls for it. vs must be rectangular (checkRect) with
// len(dst) == len(vs[0]).
func reduceSortedColumns(dst []float64, vs [][]float64, red colReduce) {
	d := len(dst)
	if w := ChunkWorkers(len(vs) * d); w > 1 {
		RunChunked(d, w, func(lo, hi int) {
			reduceSortedColumnsRange(dst, vs, red, lo, hi)
		})
		return
	}
	reduceSortedColumnsRange(dst, vs, red, 0, d)
}

// reduceSortedColumnsRange is the sequential kernel body over coordinates
// [lo, hi): tile by tile it gathers, sorts every column of the tile at once
// with the row-against-row network and reduces row-wise. A tile holding a NaN
// or a −0 (and every input with n < 2, where there is nothing to sort) goes
// through reduceSortedColumnsRef instead.
//
//dpbyz:hotpath
func reduceSortedColumnsRange(dst []float64, vs [][]float64, red colReduce, lo, hi int) {
	n := len(vs)
	if n < 2 {
		reduceSortedColumnsRef(dst, vs, red, lo, hi)
		return
	}
	width := min(tileCols(n), hi-lo)
	p := getCol(n*width + n)
	tile, col := (*p)[:n*width], (*p)[n*width:]
	for j0 := lo; j0 < hi; j0 += width {
		t := min(width, hi-j0)
		if !gatherTile(tile, vs, j0, t) {
			reduceSortedColumnsRef(dst, vs, red, j0, j0+t)
			continue
		}
		sortTileRows(tile, n, t)
		red.applyTile(dst[j0:j0+t], tile, col)
	}
	putCol(p)
}

// reduceSortedColumnsRef is the per-column gather-sort-reduce loop the tiled
// kernel replaced, kept verbatim: it is the definition of the result (NaN
// sorts first, ±0 tie as sort.Float64s leaves them), the path every tile
// with a NaN or a −0 takes, and the oracle the differential tests compare
// against.
//
//dpbyz:hotpath
func reduceSortedColumnsRef(dst []float64, vs [][]float64, red colReduce, lo, hi int) {
	p := getCol(len(vs))
	col := *p
	for j := lo; j < hi; j++ {
		for i, v := range vs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		dst[j] = red.apply(col)
	}
	putCol(p)
}

// tileBytes bounds the n×T tile so that it, the n source rows streaming
// through and dst stay inside a 32 KiB L1 data cache.
const tileBytes = 16 << 10

// tileCols returns the tile width T for n rows: as many whole cache lines of
// float64 columns as fit tileBytes, and never less than two lines — below
// that the per-comparator loop set-up stops amortising (measured at n = 256:
// 16 columns beat 8 although the tile outgrows tileBytes).
func tileCols(n int) int {
	return max(16, tileBytes/(8*n)&^7)
}

const (
	signBit = 1 << 63
	// firstUnorderable is the smallest gatherTile key of a value whose float
	// order and bit pattern disagree (−0 or NaN).
	firstUnorderable = 0xffe0000000000001
)

// gatherTile copies vs[i][j0:j0+t] into row i of the row-major n×t tile and
// reports whether the tile is free of NaN and −0, i.e. whether < is a total
// order on the bit patterns it holds. Flipping the sign bit and rotating it
// to the bottom maps |x| to the high 63 bits, so that after subtracting one
// −0 (key 0, wrapping to the top) and every NaN (above ±Inf) are exactly
// the keys >= firstUnorderable: one unsigned max per value, no branch.
//
//dpbyz:hotpath
func gatherTile(tile []float64, vs [][]float64, j0, t int) bool {
	var worst uint64
	for i, v := range vs {
		row := tile[i*t : i*t+t]
		for k, x := range v[j0 : j0+t] {
			row[k] = x
			worst = max(worst, bits.RotateLeft64(math.Float64bits(x)^signBit, 1)-1)
		}
	}
	return worst < firstUnorderable
}

// sortTileRows sorts every column of the row-major n×t tile ascending by
// applying the compare-exchanges of Batcher's merge-exchange network (Knuth
// TAOCP 5.2.2 Algorithm M, valid for every n >= 2) to whole rows: afterwards
// row r holds the r-th order statistic of each column. The comparator
// sequence depends on n alone and minMaxRows does not branch on the data.
//
//dpbyz:hotpath
func sortTileRows(tile []float64, n, t int) {
	top := 1 << (bits.Len(uint(n-1)) - 1)
	for p := top; p > 0; p >>= 1 {
		for q, r, d := top, 0, p; ; d, q, r = q-p, q>>1, p {
			for i := 0; i < n-d; i++ {
				if i&p != r {
					continue
				}
				minMaxRows(tile[i*t:i*t+t], tile[(i+d)*t:(i+d)*t+t])
			}
			if q == p {
				break
			}
		}
	}
}

// minMaxRows is one comparator of sortTileRows over two tile rows: a[k],
// b[k] = min(a[k], b[k]), max(a[k], b[k]) for every k. On an AVX2 CPU the
// loop runs as AVX2 (kernels_amd64.s), four columns per VMINPD / VMAXPD,
// which give minMaxRowsGeneric's bits only on rows without NaN and −0: call
// it only on a tile gatherTile has passed. Like SqDist it panics on a
// length mismatch.
//
//dpbyz:hotpath
func minMaxRows(a, b []float64) {
	assertSameLen(a, b)
	if useAVX2 {
		minMaxRowsAVX2(a, b)
		return
	}
	minMaxRowsGeneric(a, b)
}

// minMaxRowsGeneric is minMaxRows's loop in Go.
//
//dpbyz:hotpath
func minMaxRowsGeneric(a, b []float64) {
	assertSameLen(a, b)
	for k, x := range a {
		y := b[k]
		a[k], b[k] = min(x, y), max(x, y)
	}
}

// applyTile reduces a column-sorted n×len(dst) tile into dst, performing per
// coordinate the same float operations in the same order as apply does on
// the sorted column. col is n-length scratch.
//
//dpbyz:hotpath
func (r colReduce) applyTile(dst, tile, col []float64) {
	t, n := len(dst), len(col)
	switch r.op {
	case opTrimmedMean:
		clear(dst)
		for i := r.trim; i < n-r.trim; i++ {
			for k, x := range tile[i*t : i*t+t] {
				dst[k] += x
			}
		}
		div := float64(n - 2*r.trim)
		for k := range dst {
			dst[k] /= div
		}
	case opMeamed:
		for k := range dst {
			for i := range col {
				col[i] = tile[i*t+k]
			}
			dst[k] = meamedSorted(col, r.m)
		}
	default:
		mid := tile[n/2*t : n/2*t+t]
		if n%2 == 1 {
			copy(dst, mid)
			return
		}
		below := tile[(n/2-1)*t : n/2*t]
		for k, x := range mid {
			dst[k] = (below[k] + x) / 2
		}
	}
}

// MeanInto stores the coordinate-wise mean of vs into dst without
// allocating. It returns an error when vs is empty, the vectors disagree on
// dimension, or dst has the wrong length.
func MeanInto(dst []float64, vs [][]float64) error {
	d, err := checkDst(dst, vs)
	if err != nil {
		return err
	}
	if w := ChunkWorkers(len(vs) * d); w > 1 {
		RunChunked(d, w, func(lo, hi int) {
			meanRange(dst, vs, lo, hi)
		})
		return nil
	}
	meanRange(dst, vs, 0, d)
	return nil
}

// meanRange accumulates the mean over coordinates [lo, hi).
//
//dpbyz:hotpath
func meanRange(dst []float64, vs [][]float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] = 0
	}
	for _, v := range vs {
		for j := lo; j < hi; j++ {
			dst[j] += v[j]
		}
	}
	inv := 1.0 / float64(len(vs))
	for j := lo; j < hi; j++ {
		dst[j] *= inv
	}
}

// checkDst validates a destination buffer against a non-empty rectangular
// input matrix and returns the shared dimension.
func checkDst(dst []float64, vs [][]float64) (int, error) {
	if len(vs) == 0 {
		return 0, errEmptyInput
	}
	d, err := checkRect(vs)
	if err != nil {
		return 0, err
	}
	if len(dst) != d {
		return 0, ErrDimensionMismatch
	}
	return d, nil
}

// PairwiseSqDistsInto fills the n×n matrix dst with squared Euclidean
// distances between the vectors in vs (dst[i][j] = ‖vs[i]−vs[j]‖², the bits
// of SqDist(vs[i], vs[j]) for i < j) without allocating. Pairs of rows are
// distributed across workers in strides so the triangular work balances;
// each pair is computed exactly once, keeping the result bit-identical to
// the sequential path.
//
// Inputs are validated up front, before any worker fan-out: a ragged input
// row or an undersized dst row returns ErrDimensionMismatch (an empty vs
// returns an error too) instead of panicking inside a worker goroutine,
// which would kill the process with no chance for the caller to recover.
func PairwiseSqDistsInto(dst [][]float64, vs [][]float64) error {
	if len(vs) == 0 {
		return errEmptyInput
	}
	d, err := checkRect(vs)
	if err != nil {
		return err
	}
	n := len(vs)
	if len(dst) < n {
		return ErrDimensionMismatch
	}
	for _, row := range dst[:n] {
		if len(row) < n {
			return ErrDimensionMismatch
		}
	}
	if w := min(ChunkWorkers(n*(n-1)/2*d), (n+1)/2); w > 1 {
		RunStriped(w, func(c int) {
			pairwiseRows(dst, vs, c, w)
		})
		return nil
	}
	pairwiseRows(dst, vs, 0, 1)
	return nil
}

// pairwiseRows computes the row pairs owned by worker c out of w: rows
// (2c, 2c+1), then (2c+2w, 2c+2w+1), and so on; the last row of an odd n
// is a pair on its own. The owner of rows j and j+1 writes dst[j][i] and
// dst[j+1][i] for every i below them, and their mirrors; no element is
// written by two workers.
//
//dpbyz:hotpath
func pairwiseRows(dst [][]float64, vs [][]float64, c, w int) {
	var out [8]float64
	for j := 2 * c; j < len(vs); j += 2 * w {
		// m rows go through the sweep: 0..j against the points (j, j+1),
		// or 0..j−1 against (j, j) when j is the last row.
		p, q, m := vs[j], vs[j], j
		if j+1 < len(vs) {
			q, m = vs[j+1], j+1
		}
		last := m - 1
		for i := 0; i < m; i += 4 {
			sqDist4x2(&out, vs[i], vs[min(i+1, last)], vs[min(i+2, last)], vs[min(i+3, last)], p, q)
			for r := range min(4, m-i) {
				if i+r < j {
					dst[j][i+r], dst[i+r][j] = out[r], out[r]
				}
				if m > j {
					dst[j+1][i+r], dst[i+r][j+1] = out[4+r], out[4+r]
				}
			}
		}
		dst[j][j] = 0
		if m > j {
			dst[j+1][j+1] = 0
		}
	}
}

// sqDist4x2 stores the squared distances from the rows a0..a3 to the points
// p and q in out: out[r] = SqDist(a_r, p) and out[4+r] = SqDist(a_r, q), bit
// for bit, from one sweep over the coordinates. Eight accumulators each sum
// their own pair in ascending k exactly as SqDist does, with the row as the
// minuend. On an AVX2 CPU the sweep runs as AVX2 (kernels_amd64.s), four
// accumulators per register, lane for lane sqDist4x2Generic's operations.
// Like SqDist it panics on a length mismatch.
//
//dpbyz:hotpath
func sqDist4x2(out *[8]float64, a0, a1, a2, a3, p, q []float64) {
	assertSameLen(a0, p)
	assertSameLen(a1, p)
	assertSameLen(a2, p)
	assertSameLen(a3, p)
	assertSameLen(q, p)
	if useAVX2 {
		sqDist4x2AVX2(out, a0, a1, a2, a3, p, q)
		return
	}
	sqDist4x2Generic(out, a0, a1, a2, a3, p, q)
}

// sqDist4x2Generic is sqDist4x2's sweep in Go.
//
//dpbyz:hotpath
func sqDist4x2Generic(out *[8]float64, a0, a1, a2, a3, p, q []float64) {
	assertSameLen(a0, p)
	assertSameLen(a1, p)
	assertSameLen(a2, p)
	assertSameLen(a3, p)
	assertSameLen(q, p)
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for k, x := range p {
		y := q[k]
		r0, r1, r2, r3 := a0[k], a1[k], a2[k], a3[k]
		d0, d1, d2, d3 := r0-x, r1-x, r2-x, r3-x
		e0, e1, e2, e3 := r0-y, r1-y, r2-y, r3-y
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		t0 += e0 * e0
		t1 += e1 * e1
		t2 += e2 * e2
		t3 += e3 * e3
	}
	*out = [8]float64{s0, s1, s2, s3, t0, t1, t2, t3}
}
