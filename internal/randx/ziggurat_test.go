package randx

import (
	"math"
	"testing"
)

// The ziggurat tables must tile the density exactly: equal-area strips whose
// cumulative heights reach f(0) = 1 and whose x-edges decrease to 0.
func TestZigguratTableConsistency(t *testing.T) {
	if zigX[1] != zigR {
		t.Fatalf("zigX[1] = %v, want R", zigX[1])
	}
	for i := 1; i < zigStrips; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		if zigY[i+1] <= zigY[i] {
			t.Fatalf("zigY not strictly increasing at %d", i)
		}
		// zigY[i] must be f(zigX[i]).
		if f := math.Exp(-0.5 * zigX[i] * zigX[i]); math.Abs(f-zigY[i]) > 1e-12 {
			t.Fatalf("zigY[%d] = %v, want f(x) = %v", i, zigY[i], f)
		}
	}
	// The recurrence must close the ziggurat at the mode: the last strip's
	// top edge lands on f(0) = 1 up to the table constants' precision.
	closure := zigY[zigStrips-1] + zigV/zigX[zigStrips-1]
	if math.Abs(closure-1) > 1e-7 {
		t.Fatalf("ziggurat does not close: top edge %v", closure)
	}
	// Base strip: rectangle area matches the shared strip area V.
	if a := zigX[0] * zigY[1]; math.Abs(a-zigV) > 1e-15 {
		t.Fatalf("base strip area %v != V", a)
	}
}

// Ziggurat moments: mean 0, variance 1, plus tail mass in the right ballpark
// (the tail path must actually fire).
func TestZigguratMomentsAndTail(t *testing.T) {
	r := New(123)
	const n = 500000
	var sum, sumSq, sumCube float64
	tail := 0
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
		sumCube += x * x * x
		if math.Abs(x) > zigR {
			tail++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v", variance)
	}
	if math.Abs(sumCube/n) > 0.03 {
		t.Errorf("third moment = %v, want ~0", sumCube/n)
	}
	// P(|X| > 3.654) ≈ 2.58e-4: with 5e5 draws expect ≈ 129.
	if tail < 60 || tail > 260 {
		t.Errorf("tail draws = %d, want ≈ 129", tail)
	}
}

// Per-interval frequencies against the normal CDF — a coarse goodness-of-fit
// check that would catch mis-stacked strips.
func TestZigguratDistribution(t *testing.T) {
	r := New(77)
	const n = 200000
	edges := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
	counts := make([]int, len(edges)+1)
	for i := 0; i < n; i++ {
		x := r.Normal()
		b := 0
		for b < len(edges) && x > edges[b] {
			b++
		}
		counts[b]++
	}
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	prev := 0.0
	for b := range counts {
		var p float64
		if b == len(edges) {
			p = 1 - prev
		} else {
			c := cdf(edges[b])
			p = c - prev
			prev = c
		}
		want := p * n
		if math.Abs(float64(counts[b])-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ≈ %.0f", b, counts[b], want)
		}
	}
}
