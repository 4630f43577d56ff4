package vecmath

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallelGrain is the work, in element operations, one goroutine
// must receive before a loop fans out to another: ChunkWorkers gives a loop
// one goroutine per full grain, so below two grains everything runs inline
// on the calling goroutine, which also keeps the hot-path *Into kernels
// allocation-free (goroutine fan-out costs a handful of small allocations).
// Split in two on a 2-vCPU box, the pairwise pass (the cheapest operation
// per element) loses at 28k element operations and ties at 56k, the mean
// loses at 10k and wins at 20k, and the sorted-column kernels, the gradient
// sweep and the evaluation scan already win at 10–20k. Fanning out from two
// grains (32,768) sits between those crossovers and keeps the paper's
// figure shape (6 honest workers × b = 50 × d = 69 = 20,700) inline.
const DefaultParallelGrain = 1 << 14

var (
	// workerCap caps the number of goroutines per fan-out; 0 means
	// runtime.GOMAXPROCS(0), resolved at call time.
	workerCap atomic.Int64
	// workGrain is the per-worker work floor; 0 means DefaultParallelGrain.
	workGrain atomic.Int64
)

// SetParallelism caps the number of goroutines a fan-out may use; it is a
// test seam. workers <= 0 restores the default (runtime.GOMAXPROCS at call
// time). SetParallelism(1) forces every loop onto the calling goroutine,
// which is also the fully allocation-free configuration. Tests in several
// packages use it to pin the fan-out width.
//
//dpbyz:testseam
func SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	workerCap.Store(int64(workers))
}

// parallelism returns the current goroutine cap.
func parallelism() int {
	if w := int(workerCap.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelGrain sets the per-worker work floor, in element operations;
// it is a test seam. work <= 0 restores DefaultParallelGrain. Tests set 1
// to exercise the parallel path on small inputs.
//
//dpbyz:testseam
func SetParallelGrain(work int) {
	if work < 0 {
		work = 0
	}
	workGrain.Store(int64(work))
}

// parallelGrain returns the current per-worker work floor.
func parallelGrain() int {
	if g := int(workGrain.Load()); g > 0 {
		return g
	}
	return DefaultParallelGrain
}

// ChunkWorkers is the process's one fan-out decision: how many goroutines a
// loop doing `work` element operations should use — one per full grain,
// never more than the configured cap. Each caller counts its own work (n·d
// for a coordinate-wise kernel, n(n−1)/2·d for the pairwise pass, points·d
// for an evaluation scan, workers·b·d for a gradient sweep) and still caps
// the result at its number of items. Callers with a zero-alloc fast path
// handle a result of 1 by calling their sequential body directly.
func ChunkWorkers(work int) int {
	byGrain := work / parallelGrain()
	if byGrain <= 1 {
		return 1
	}
	return min(byGrain, parallelism())
}

// chunkBounds splits [0, n) into w near-equal contiguous chunks and returns
// the half-open bounds of chunk c.
func chunkBounds(n, w, c int) (lo, hi int) {
	size := n / w
	rem := n % w
	lo = c*size + min(c, rem)
	hi = lo + size
	if c < rem {
		hi++
	}
	return lo, hi
}

// RunChunked executes fn over [0, n) split into w chunks on w goroutines.
// Callers handle the w == 1 case inline themselves (calling a top-level
// range function directly) so that the sequential path never builds a
// closure and stays allocation-free.
func RunChunked(n, w int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		lo, hi := chunkBounds(n, w, c)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RunStriped executes fn(worker) for worker = 0..w-1 on w goroutines.
// Kernels whose per-item cost is unbalanced (e.g. triangular pairwise
// loops) use the worker index as a stride class instead of a contiguous
// chunk. Callers handle w == 1 inline themselves, as with RunChunked.
func RunStriped(w int, fn func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// colPool recycles the per-worker column scratch used by the sorted-column
// kernels. Entries are *[]float64 so that Get/Put never allocate on the
// steady state of a training loop (all columns share the worker count n).
var colPool = sync.Pool{New: func() any { return new([]float64) }}

// getCol returns a pooled scratch slice of length n.
//
//dpbyz:scratch
func getCol(n int) *[]float64 {
	p := colPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// putCol returns a scratch slice to the pool.
func putCol(p *[]float64) { colPool.Put(p) }
