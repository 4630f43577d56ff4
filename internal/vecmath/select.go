package vecmath

import "sort"

// PartialSortAscending rearranges xs so that its k smallest values occupy
// xs[:k] in ascending order; the order of xs[k:] is unspecified. It is the
// replacement for "sort everything, read the prefix" in the Krum score
// kernel: an in-place quickselect (deterministic median-of-three pivoting —
// no randomness, so the result never depends on anything but the input)
// splits off the k smallest in O(n) expected comparisons, then only the
// k-prefix is sorted.
//
// Because the k smallest values of a multiset are the same multiset
// whichever algorithm finds them, summing xs[:k] in ascending index order
// after PartialSortAscending is bit-identical to summing the first k entries
// of a fully sorted copy — provided values that compare equal are the same
// bits. That fails for exactly one pair: −0 == +0 with different bit
// patterns, which two correct sorts may leave in either order (and a tie at
// the k boundary may keep either one). The Krum kernel's inputs are squared
// distances, which are never −0; the tiled sorted-column kernel (kernel.go)
// takes arbitrary inputs and therefore guards on −0.
//
//dpbyz:hotpath
func PartialSortAscending(xs []float64, k int) {
	if k <= 0 {
		return
	}
	if k > len(xs) {
		k = len(xs)
	}
	if k < len(xs) {
		quickSelect(xs, k-1)
	}
	sort.Float64s(xs[:k])
}

// quickSelect partitions xs in place so that every value in xs[:kth+1] is
// <= every value in xs[kth+1:]. Iterative Hoare partitioning; the
// median-of-three pre-ordering leaves xs[lo] <= pivot <= xs[hi], which are
// the sentinels keeping the inner scans inside the range. Ranges of a dozen
// elements or fewer finish by insertion sort.
//
//dpbyz:hotpath
func quickSelect(xs []float64, kth int) {
	lo, hi := 0, len(xs)-1 // inclusive working range containing index kth
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Invariant: xs[lo..j] <= p, xs[i..hi] >= p, and every position in
		// the (possibly empty) gap (j, i) equals p.
		switch {
		case kth <= j:
			hi = j
		case kth >= i:
			lo = i
		default:
			return // kth lands in the all-equal gap: already partitioned
		}
	}
	insertionSort(xs, lo, hi+1)
}

// insertionSort sorts xs[lo:hi] ascending in place.
//
//dpbyz:hotpath
func insertionSort(xs []float64, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		x := xs[i]
		j := i - 1
		for j >= lo && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}
