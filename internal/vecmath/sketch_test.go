package vecmath

import (
	"math"
	"testing"

	"dpbyz/internal/randx"
)

// TestSketcherDeterministic pins the seed contract: identical (d, k, seed)
// build identical tables and projections; a different seed builds a
// different transform.
func TestSketcherDeterministic(t *testing.T) {
	const d, k = 300, 32
	a, err := NewSketcher(d, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSketcher(d, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSketcher(d, k, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, d)
	rng := randx.New(1)
	rng.NormalVec(v, 1)
	pa, pb, pc := make([]float64, k), make([]float64, k), make([]float64, k)
	if err := a.ProjectInto(pa, v); err != nil {
		t.Fatal(err)
	}
	if err := b.ProjectInto(pb, v); err != nil {
		t.Fatal(err)
	}
	if err := c.ProjectInto(pc, v); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed diverges at row %d: %v != %v", i, pa[i], pb[i])
		}
		if pa[i] != pc[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical projections")
	}
}

// TestSketcherPreservesDistances is the JL sanity check: over a cloud of
// vectors, sketch distances approximate exact distances within a loose
// multiplicative band. The shortlist consumers only need ordering to be
// roughly right (candidates are exactly re-checked), so the band is wide.
func TestSketcherPreservesDistances(t *testing.T) {
	const d, k, n = 2000, 64, 12
	sk, err := NewSketcher(d, k, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5)
	vs := make([][]float64, n)
	ps := make([][]float64, n)
	for i := range vs {
		vs[i] = make([]float64, d)
		rng.NormalVec(vs[i], 1)
		ps[i] = make([]float64, k)
		if err := sk.ProjectInto(ps[i], vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			exact := SqDist(vs[i], vs[j])
			approx := SqDist(ps[i], ps[j])
			ratio := approx / exact
			if math.IsNaN(ratio) || ratio < 0.3 || ratio > 3 {
				t.Errorf("pair (%d,%d): sketch/exact squared-distance ratio %.3f outside [0.3, 3]",
					i, j, ratio)
			}
		}
	}
}

// TestSketcherValidation covers the constructor and projection error paths.
func TestSketcherValidation(t *testing.T) {
	if _, err := NewSketcher(0, 4, 1); err == nil {
		t.Error("NewSketcher accepted d=0")
	}
	if _, err := NewSketcher(4, 0, 1); err == nil {
		t.Error("NewSketcher accepted k=0")
	}
	sk, err := NewSketcher(8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sk.K() != 8 {
		t.Errorf("k not clamped to d: K() = %d", sk.K())
	}
	if err := sk.ProjectInto(make([]float64, sk.K()), make([]float64, 9)); err == nil {
		t.Error("ProjectInto accepted wrong input dimension")
	}
	if err := sk.ProjectInto(make([]float64, 3), make([]float64, 8)); err == nil {
		t.Error("ProjectInto accepted wrong sketch dimension")
	}
}
