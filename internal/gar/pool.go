package gar

import (
	"math"
	"sync"
)

// scratch bundles every buffer an AggregateInto call needs — gradient-sized
// iterates, n-sized score columns, the shared n×n Gram (pairwise squared
// distance) matrix and index/selection workspaces — so one pool Get/Put per
// aggregation covers all of them. On the steady state of a training loop
// (fixed n and d) no call allocates: every grow* hit finds sufficient
// capacity from the previous step.
//
//dpbyz:scratch
type scratch struct {
	vecA, vecB       []float64 // gradient-sized (d) iterates and accumulators
	scores           []float64 // per-worker (n) scores / distances
	scoresB          []float64 // second score column (sketch-space scores)
	row              []float64 // Krum neighbour-distance row (n-1)
	gramFlat         []float64 // backing store of the Gram matrix (n·n)
	gram             [][]float64
	gram2Flat        []float64 // second n×n matrix (sketched exact-pair cache)
	gram2            [][]float64
	intA, intB, intC []int       // subset-search index workspaces
	scored           []phocasVal // Phocas per-coordinate selection column
	selA, selB       [][]float64 // gradient selections (headers only, no copies)
	bucketFlat       []float64   // Bucketed pre-aggregation means (m·d, selA holds the row headers)
	skFlat           []float64   // sketch projections (n·k, skRows holds the row headers)
	skRows           [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch borrows a scratch bundle from the pool.
//
//dpbyz:scratch
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) { scratchPool.Put(s) }

// grow resizes *buf to length n, reallocating only when capacity is short;
// contents are unspecified and must be overwritten by the caller.
//
//dpbyz:scratch
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// square returns an n×n matrix view over the scratch's pooled flat storage.
//
//dpbyz:scratch
func (s *scratch) square(n int) [][]float64 {
	flat := grow(&s.gramFlat, n*n)
	rows := grow(&s.gram, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n]
	}
	return rows
}

// nanSquare returns a second, independent n×n matrix view with every entry
// NaN: the sketched kernels hold the sketch Gram in square and the exact-pair
// cache here, NaN meaning "not computed yet" (see cachedSqDist).
//
//dpbyz:scratch
//dpbyz:hotpath
func (s *scratch) nanSquare(n int) [][]float64 {
	flat := grow(&s.gram2Flat, n*n)
	for i := range flat {
		flat[i] = math.NaN()
	}
	rows := grow(&s.gram2, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n]
	}
	return rows
}

// sketchRows returns an n×k matrix view for sketch projections.
//
//dpbyz:scratch
func (s *scratch) sketchRows(n, k int) [][]float64 {
	flat := grow(&s.skFlat, n*k)
	rows := grow(&s.skRows, n)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k]
	}
	return rows
}
