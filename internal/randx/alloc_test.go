//go:build !race

package randx

import "testing"

// Under -race, sync.Pool-free code is still fine, but AllocsPerRun counts
// race-detector bookkeeping; gate these like the other packages do.

func TestSampleAllocationFree(t *testing.T) {
	r := New(1)
	idx := make([]int, 50)
	r.Sample(idx, 1000) // size the stream-owned table outside the measurement
	if allocs := testing.AllocsPerRun(100, func() {
		r.Sample(idx, 1000)
	}); allocs != 0 {
		t.Errorf("Sample allocs/op = %v, want 0", allocs)
	}
}

func TestSampleReusedAcrossBatchSizes(t *testing.T) {
	r := New(2)
	big := make([]int, 200)
	small := make([]int, 8)
	r.Sample(big, 500)
	if allocs := testing.AllocsPerRun(50, func() {
		r.Sample(small, 500)
		r.Sample(big, 500)
	}); allocs != 0 {
		t.Errorf("mixed-size Sample allocs/op = %v, want 0", allocs)
	}
}

func TestPermIntoAllocationFree(t *testing.T) {
	r := New(3)
	p := make([]int, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		r.PermInto(p)
	}); allocs != 0 {
		t.Errorf("PermInto allocs/op = %v, want 0", allocs)
	}
}

func TestNormalVecAllocationFree(t *testing.T) {
	r := New(4)
	v := make([]float64, 512)
	if allocs := testing.AllocsPerRun(100, func() {
		r.NormalVec(v, 1)
	}); allocs != 0 {
		t.Errorf("NormalVec allocs/op = %v, want 0", allocs)
	}
}

func TestUint64sAllocationFree(t *testing.T) {
	r := New(5)
	for _, n := range uint64sLengths {
		dst := make([]uint64, n)
		if allocs := testing.AllocsPerRun(100, func() {
			r.Uint64s(dst)
		}); allocs != 0 {
			t.Errorf("Uint64s(len %d) allocs/op = %v, want 0", n, allocs)
		}
	}
}
