package gar

import (
	"testing"
	"testing/quick"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// Robust aggregators of the statistically-robust family are equivariant
// under translation and positive scaling of their inputs: F(X + v) =
// F(X) + v and F(c·X) = c·F(X). These invariants catch a wide class of
// implementation bugs (off-by-one trims, biased tie-breaking, etc.).

func randomCloud(seed uint64, n, dim int) [][]float64 {
	rng := randx.New(seed)
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = rng.NormalVec(make([]float64, dim), 1)
	}
	return grads
}

func TestTranslationEquivariance(t *testing.T) {
	rules := allRules(t, 9, 2)
	f := func(seed uint64, shiftRaw [3]int8) bool {
		grads := randomCloud(seed, 9, 3)
		shift := []float64{float64(shiftRaw[0]), float64(shiftRaw[1]), float64(shiftRaw[2])}
		shifted := make([][]float64, len(grads))
		for i, g := range grads {
			shifted[i] = vecmath.Axpy(1, shift, vecmath.Clone(g))
		}
		for _, rule := range rules {
			a, err1 := rule.Aggregate(grads)
			b, err2 := rule.Aggregate(shifted)
			if err1 != nil || err2 != nil {
				return false
			}
			if !vecmath.ApproxEqual(vecmath.Axpy(1, shift, vecmath.Clone(a)), b, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// scaleEquivariant reports whether every rule satisfies F(c·X) = c·F(X),
// to 1e-4, on the seeded 9×3 cloud, with c = 0.1 + 4·cRaw/255.
func scaleEquivariant(rules []GAR, seed uint64, cRaw uint8) bool {
	c := 0.1 + 4*float64(cRaw)/255
	grads := randomCloud(seed, 9, 3)
	scaled := make([][]float64, len(grads))
	for i, g := range grads {
		scaled[i] = vecmath.ScaleInPlace(c, vecmath.Clone(g))
	}
	for _, rule := range rules {
		a, err1 := rule.Aggregate(grads)
		b, err2 := rule.Aggregate(scaled)
		if err1 != nil || err2 != nil {
			return false
		}
		if !vecmath.ApproxEqual(vecmath.ScaleInPlace(c, vecmath.Clone(a)), b, 1e-4) {
			return false
		}
	}
	return true
}

// TestPositiveScaleEquivariance checks the scale property on quick.Check's
// random draws and on the named inputs below, each a draw it once failed on.
func TestPositiveScaleEquivariance(t *testing.T) {
	rules := allRules(t, 9, 2)
	for _, tc := range []struct {
		name string
		seed uint64
		cRaw uint8
	}{
		// An unconverged Weiszfeld iterate (the deleted geomed rule) was
		// 5.1e-4 away from its scaled run here.
		{"unconverged iterate", 0x4e9616961bbfaafc, 0xc},
	} {
		if !scaleEquivariant(rules, tc.seed, tc.cRaw) {
			t.Errorf("%s: seed %#x, cRaw %#x: not scale-equivariant", tc.name, tc.seed, tc.cRaw)
		}
	}
	f := func(seed uint64, cRaw uint8) bool { return scaleEquivariant(rules, seed, cRaw) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Negation symmetry: for sign-symmetric rules, F(−X) = −F(X).
func TestNegationEquivariance(t *testing.T) {
	rules := allRules(t, 9, 2)
	f := func(seed uint64) bool {
		grads := randomCloud(seed, 9, 4)
		negated := make([][]float64, len(grads))
		for i, g := range grads {
			negated[i] = vecmath.ScaleInPlace(-1, vecmath.Clone(g))
		}
		for _, rule := range rules {
			a, err1 := rule.Aggregate(grads)
			b, err2 := rule.Aggregate(negated)
			if err1 != nil || err2 != nil {
				return false
			}
			if !vecmath.ApproxEqual(vecmath.ScaleInPlace(-1, vecmath.Clone(a)), b, 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
