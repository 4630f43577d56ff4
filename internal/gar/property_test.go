package gar

import (
	"math"
	"testing"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// The GAR property battery: table-driven metamorphic and adversarial
// invariants every registry rule must satisfy. Each subtest is named
// rule/property so a regression pinpoints the rule and the broken law.

// propertyNF is the battery's system size: large enough that every registry
// rule admits it (Bulyan needs n >= 4f + 3).
const (
	propertyN = 11
	propertyF = 2
	propertyD = 16
)

// batteryRules builds every named registry rule at the battery size.
func batteryRules(t *testing.T, names []string) map[string]GAR {
	t.Helper()
	out := make(map[string]GAR, len(names))
	for _, name := range names {
		g, err := New(name, propertyN, propertyF)
		if err != nil {
			t.Fatalf("rule %q rejects n=%d f=%d: %v", name, propertyN, propertyF, err)
		}
		out[name] = g
	}
	return out
}

// gaussianCloud draws n unit-mean-centered Gaussian gradients with the given
// coordinate-wise spread.
func gaussianCloud(rng *randx.Stream, n, d int, sigma float64) (cloud [][]float64, mu []float64) {
	mu = rng.NormalVec(make([]float64, d), 1)
	vecmath.ScaleInPlace(1/vecmath.Norm(mu), mu)
	cloud = make([][]float64, n)
	for i := range cloud {
		// Axpy mutates its destination, so each row needs its own copy of μ.
		cloud[i] = vecmath.Axpy(sigma, rng.NormalVec(make([]float64, d), 1), vecmath.Clone(mu))
	}
	return cloud, mu
}

// Permutation invariance: a GAR must not care which worker sent which
// gradient — F(X∘π) = F(X) for every permutation π. Catches index-dependent
// tie-breaking and trim bookkeeping bugs.
func TestPropertyPermutationInvariance(t *testing.T) {
	rules := batteryRules(t, Names())
	for name, g := range rules {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := randx.New(seed)
				cloud, _ := gaussianCloud(rng, propertyN, propertyD, 0.3)
				base, err := g.Aggregate(cloud)
				if err != nil {
					t.Fatal(err)
				}
				perm := rng.Perm(propertyN)
				shuffled := make([][]float64, propertyN)
				for i, p := range perm {
					shuffled[i] = cloud[p]
				}
				got, err := g.Aggregate(shuffled)
				if err != nil {
					t.Fatal(err)
				}
				// Tolerance absorbs summation-order rounding only.
				if !vecmath.ApproxEqual(base, got, 1e-9) {
					t.Fatalf("seed %d: aggregate changed under permutation\n base %v\n perm %v",
						seed, base, got)
				}
			}
		})
	}
}

// Translation equivariance: F(X + v) = F(X) + v for a common offset v —
// aggregation happens on gradient differences, so a shared shift passes
// through untouched. Random full-dimensional offsets, per rule.
func TestPropertyTranslationEquivariance(t *testing.T) {
	rules := batteryRules(t, Names())
	for name, g := range rules {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := randx.New(seed)
				cloud, _ := gaussianCloud(rng, propertyN, propertyD, 0.3)
				shift := rng.NormalVec(make([]float64, propertyD), 2)
				base, err := g.Aggregate(cloud)
				if err != nil {
					t.Fatal(err)
				}
				shifted := make([][]float64, len(cloud))
				for i, v := range cloud {
					shifted[i] = vecmath.Add(v, shift)
				}
				got, err := g.Aggregate(shifted)
				if err != nil {
					t.Fatal(err)
				}
				if !vecmath.ApproxEqual(vecmath.Add(base, shift), got, 1e-8) {
					t.Fatalf("seed %d: aggregate not translation-equivariant", seed)
				}
			}
		})
	}
}

// Outlier clipping: for every resilient rule, one unbounded submission must
// not move the aggregate — the aggregate with the outlier at magnitude 10³
// and at 10⁹ must essentially coincide (the outlier's influence saturates),
// and both must stay near the honest mean. The non-robust average is the
// control: it MUST blow up, proving the test can fail.
func TestPropertySingleOutlierClipped(t *testing.T) {
	rules := batteryRules(t, ResilientNames())
	outlierAt := func(g GAR, cloud [][]float64, dir []float64, scale float64) []float64 {
		t.Helper()
		subs := make([][]float64, len(cloud))
		copy(subs, cloud)
		subs[0] = vecmath.Scale(scale, dir)
		agg, err := g.Aggregate(subs)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	for name, g := range rules {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				rng := randx.New(seed)
				cloud, _ := gaussianCloud(rng, propertyN, propertyD, 0.3)
				honestMean, err := vecmath.Mean(cloud[1:])
				if err != nil {
					t.Fatal(err)
				}
				dir := rng.NormalVec(make([]float64, propertyD), 1)
				vecmath.ScaleInPlace(1/vecmath.Norm(dir), dir)
				small := outlierAt(g, cloud, dir, 1e3)
				huge := outlierAt(g, cloud, dir, 1e9)
				// Saturation: 6 more orders of magnitude change nothing
				// beyond iterative-solver tolerance.
				if vecmath.Dist(small, huge) > 1e-3 {
					t.Fatalf("seed %d: outlier influence not saturated: |F(1e3) - F(1e9)| = %v",
						seed, vecmath.Dist(small, huge))
				}
				// Boundedness: the aggregate stays in the honest region.
				if dev := vecmath.Dist(huge, honestMean); dev > 1 {
					t.Fatalf("seed %d: aggregate strayed %v from the honest mean", seed, dev)
				}
			}
		})
	}
	t.Run("average-control", func(t *testing.T) {
		avg, err := NewAverage(propertyN)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(1)
		cloud, _ := gaussianCloud(rng, propertyN, propertyD, 0.3)
		dir := make([]float64, propertyD)
		dir[0] = 1
		subs := make([][]float64, len(cloud))
		copy(subs, cloud)
		subs[0] = vecmath.Scale(1e9, dir)
		agg, err := avg.Aggregate(subs)
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.Norm(agg) < 1e6 {
			t.Error("the average absorbed an unbounded outlier — the battery's control is broken")
		}
	})
}

// byzantineFixtures are the crafted adversarial submissions of the
// empirical (α, f) check: the paper's two attack families plus the classic
// reversal, an unbounded vector, and the mimic replay.
func byzantineFixtures(cloud [][]float64, mean, std []float64) map[string][]float64 {
	return map[string][]float64{
		"alie":     vecmath.Axpy(-1.5, std, vecmath.Clone(mean)),
		"foe":      vecmath.Scale(1-1.1, mean),
		"signflip": vecmath.Scale(-1, mean),
		"huge":     vecmath.Scale(1e6, mean),
		"mimic":    vecmath.Clone(cloud[0]),
	}
}

// Empirical (α, f) resilience: with f crafted adversarial submissions among
// n − f honest Gaussian gradients in the low-variance regime, every
// resilient rule's aggregate must (1) stay within its empirical factor of
// the honest mean, measured in units of the honest spread σ√d, and (2) keep
// a positive inner product with the honest mean — the angle condition that
// makes (α, f)-resilient aggregation a descent direction. The factor table
// encodes each rule's measured constant with ~3x margin; a rule drifting
// past its factor means its filtering degraded.
func TestPropertyEmpiricalAlphaF(t *testing.T) {
	factors := map[string]float64{
		"krum":         1.5,
		"multikrum":    1.5,
		"median":       1.5,
		"trimmedmean":  1.5,
		"phocas":       1.5,
		"meamed":       1.5,
		"bulyan":       1.5,
		"mda":          1.5,
		"centeredclip": 3.0,
	}
	rules := batteryRules(t, ResilientNames())
	const sigma = 0.05
	unit := sigma * math.Sqrt(propertyD)
	for name, g := range rules {
		factor, ok := factors[name]
		if !ok {
			t.Errorf("rule %q has no empirical (α, f) factor — extend the battery table", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			worst := 0.0
			for seed := uint64(1); seed <= 10; seed++ {
				rng := randx.New(seed)
				honest, _ := gaussianCloud(rng, propertyN-propertyF, propertyD, sigma)
				mean, err := vecmath.Mean(honest)
				if err != nil {
					t.Fatal(err)
				}
				std, err := vecmath.CoordStd(honest)
				if err != nil {
					t.Fatal(err)
				}
				for attackName, crafted := range byzantineFixtures(honest, mean, std) {
					subs := make([][]float64, 0, propertyN)
					for i := 0; i < propertyF; i++ {
						subs = append(subs, crafted)
					}
					subs = append(subs, honest...)
					agg, err := g.Aggregate(subs)
					if err != nil {
						t.Fatal(err)
					}
					ratio := vecmath.Dist(agg, mean) / unit
					if ratio > worst {
						worst = ratio
					}
					if ratio > factor {
						t.Errorf("seed %d, attack %s: deviation %.3f·σ√d exceeds the rule's factor %.1f",
							seed, attackName, ratio, factor)
					}
					if vecmath.Dot(agg, mean) <= 0 {
						t.Errorf("seed %d, attack %s: aggregate lost the descent direction", seed, attackName)
					}
				}
			}
			t.Logf("worst deviation %.3f·σ√d (factor %.1f)", worst, factor)
		})
	}
}

// The battery's fixtures must themselves be sane: honest spread small
// relative to the mean (the VN regime where resilience is proven).
func TestPropertyFixtureRegime(t *testing.T) {
	rng := randx.New(1)
	honest, mu := gaussianCloud(rng, propertyN-propertyF, propertyD, 0.05)
	ratio, err := EmpiricalVNRatio(honest)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vecmath.Norm(mu)-1) > 1e-9 {
		t.Errorf("fixture mean not unit norm")
	}
	if ratio > 0.5 {
		t.Errorf("fixture VN ratio %v too large for the resilience regime", ratio)
	}
}

// Every paper (Table-1) rule must advertise a positive k_F(n, f) constant;
// the extension rule (centeredclip) has no paper-derived constant and must
// report exactly 0, and the average must not claim resilience.
func TestPropertyKFConsistency(t *testing.T) {
	noPaperKF := map[string]bool{"centeredclip": true}
	for _, name := range ResilientNames() {
		g, err := New(name, propertyN, propertyF)
		if err != nil {
			t.Fatal(err)
		}
		if noPaperKF[name] {
			if g.KF() != 0 {
				t.Errorf("extension rule %q claims a paper constant KF() = %v", name, g.KF())
			}
		} else if g.KF() <= 0 {
			t.Errorf("resilient rule %q has KF() = %v, want > 0", name, g.KF())
		}
		if g.F() != propertyF {
			t.Errorf("rule %q reports f = %d, constructed with %d", name, g.F(), propertyF)
		}
	}
	avg, err := New("average", propertyN, 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg.KF() != 0 {
		t.Errorf("average advertises a resilience constant %v", avg.KF())
	}
}
