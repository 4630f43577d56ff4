package randx

import "testing"

// A restored stream must reproduce the original's draws bit for bit across
// every sampler, including mid-sequence snapshots.
func TestStreamStateRoundTrip(t *testing.T) {
	r := New(42)
	// Burn a mixed prefix so the snapshot is mid-sequence.
	for i := 0; i < 100; i++ {
		r.Uint64()
		r.Normal()
	}

	st := r.State()
	clone := Restore(st)

	idxA, idxB := make([]int, 16), make([]int, 16)
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("Uint64 diverges at %d: %d != %d", i, a, b)
		}
		if a, b := r.Normal(), clone.Normal(); a != b {
			t.Fatalf("Normal diverges at %d: %v != %v", i, a, b)
		}
		if a, b := r.Laplace(0.5), clone.Laplace(0.5); a != b {
			t.Fatalf("Laplace diverges at %d: %v != %v", i, a, b)
		}
		r.Sample(idxA, 500)
		clone.Sample(idxB, 500)
		for j := range idxA {
			if idxA[j] != idxB[j] {
				t.Fatalf("Sample diverges at %d[%d]", i, j)
			}
		}
	}

	// SetState rewinds an already-used stream.
	r2 := New(7)
	r2.SetState(st)
	r3 := Restore(st)
	for i := 0; i < 100; i++ {
		if a, b := r2.Normal(), r3.Normal(); a != b {
			t.Fatalf("SetState diverges at %d", i)
		}
	}
}
