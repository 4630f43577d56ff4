package cluster

import "sync"

// Decode-scratch pool. Hundreds of short-lived in-process workers would
// otherwise each allocate their own gradient-sized decode buffers; instead
// every conn borrows vectors here and returns them on close. A plain
// bounded LIFO under a mutex (rather than sync.Pool) keeps recycling
// deterministic, which the aliasing regression tests rely on.
var scratchPool struct {
	sync.Mutex
	bufs [][]float64
}

// scratchPoolCap bounds how many buffers the pool retains; beyond that,
// returned buffers are dropped for the GC.
const scratchPoolCap = 256

// getScratch returns a float64 buffer of length n, reusing a pooled buffer
// when one has enough capacity.
//
//dpbyz:scratch
func getScratch(n int) []float64 {
	scratchPool.Lock()
	for i := len(scratchPool.bufs) - 1; i >= 0; i-- {
		if b := scratchPool.bufs[i]; cap(b) >= n {
			last := len(scratchPool.bufs) - 1
			scratchPool.bufs[i] = scratchPool.bufs[last]
			scratchPool.bufs = scratchPool.bufs[:last]
			scratchPool.Unlock()
			return b[:n]
		}
	}
	scratchPool.Unlock()
	return make([]float64, n)
}

// putScratch returns a buffer to the pool. Nil and zero-capacity slices are
// ignored. The caller must not retain any alias: the buffer will be handed
// to an arbitrary future conn.
func putScratch(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	scratchPool.Lock()
	if len(scratchPool.bufs) < scratchPoolCap {
		scratchPool.bufs = append(scratchPool.bufs, buf[:cap(buf)])
	}
	scratchPool.Unlock()
}
