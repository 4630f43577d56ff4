package gar

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// honestCloud returns n gradients around center with the given spread, the
// first nByz replaced by hostile outliers far away.
func cloudWithOutliers(n, nByz, dim int, center, spread, outlierScale float64, seed uint64) [][]float64 {
	rng := randx.New(seed)
	grads := make([][]float64, n)
	for i := range grads {
		g := make([]float64, dim)
		rng.NormalVec(g, spread)
		for j := range g {
			g[j] += center
		}
		if i < nByz {
			for j := range g {
				g[j] = -outlierScale * center
			}
		}
		grads[i] = g
	}
	return grads
}

// allRules returns one instance of every registered rule valid for (n, f),
// skipping those whose constraints reject the pair.
func allRules(t *testing.T, n, f int) []GAR {
	t.Helper()
	var rules []GAR
	for _, name := range Names() {
		g, err := New(name, n, f)
		if err != nil {
			continue
		}
		rules = append(rules, g)
	}
	if len(rules) == 0 {
		t.Fatalf("no rules admit n=%d f=%d", n, f)
	}
	return rules
}

func TestConstructorConstraints(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (GAR, error)
		wantErr bool
	}{
		{name: "average ok", build: func() (GAR, error) { return NewAverage(3) }},
		{name: "average zero workers", build: func() (GAR, error) { return NewAverage(0) }, wantErr: true},
		{name: "krum ok", build: func() (GAR, error) { return NewKrum(11, 4) }},
		{name: "krum boundary rejected", build: func() (GAR, error) { return NewKrum(11, 5) }, wantErr: true},
		{name: "krum f negative", build: func() (GAR, error) { return NewKrum(11, -1) }, wantErr: true},
		{name: "multikrum ok", build: func() (GAR, error) { return NewMultiKrum(11, 4, 5) }},
		{name: "multikrum m too large", build: func() (GAR, error) { return NewMultiKrum(11, 4, 6) }, wantErr: true},
		{name: "multikrum m zero", build: func() (GAR, error) { return NewMultiKrum(11, 4, 0) }, wantErr: true},
		{name: "median ok", build: func() (GAR, error) { return NewMedian(11, 5) }},
		{name: "median too many byz", build: func() (GAR, error) { return NewMedian(11, 6) }, wantErr: true},
		{name: "trimmedmean ok", build: func() (GAR, error) { return NewTrimmedMean(11, 5) }},
		{name: "trimmedmean 2f=n", build: func() (GAR, error) { return NewTrimmedMean(10, 5) }, wantErr: true},
		{name: "phocas ok", build: func() (GAR, error) { return NewPhocas(11, 5) }},
		{name: "meamed ok", build: func() (GAR, error) { return NewMeamed(11, 5) }},
		{name: "bulyan ok", build: func() (GAR, error) { return NewBulyan(23, 5) }},
		{name: "bulyan needs 4f+3", build: func() (GAR, error) { return NewBulyan(22, 5) }, wantErr: true},
		{name: "mda ok", build: func() (GAR, error) { return NewMDA(11, 5) }},
		{name: "mda 2f=n", build: func() (GAR, error) { return NewMDA(10, 5) }, wantErr: true},
		{name: "f >= n rejected", build: func() (GAR, error) { return NewMedian(3, 3) }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if tt.wantErr && err == nil {
				t.Error("expected constructor error")
			}
			if !tt.wantErr && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}

func TestAggregateInputValidation(t *testing.T) {
	for _, g := range allRules(t, 11, 4) {
		t.Run(g.Name(), func(t *testing.T) {
			if _, err := g.Aggregate(make([][]float64, 3)); !errors.Is(err, ErrWrongInputCount) {
				t.Errorf("wrong-count error = %v", err)
			}
			bad := make([][]float64, 11)
			for i := range bad {
				bad[i] = []float64{1, 2}
			}
			bad[4] = []float64{1}
			if _, err := g.Aggregate(bad); err == nil {
				t.Error("ragged input did not error")
			}
			empty := make([][]float64, 11)
			for i := range empty {
				empty[i] = []float64{}
			}
			if _, err := g.Aggregate(empty); !errors.Is(err, ErrEmptyGradient) {
				t.Errorf("empty-gradient error = %v", err)
			}
		})
	}
}

func TestUnanimousInputIsFixedPoint(t *testing.T) {
	// When all workers submit the same vector, every rule must return it.
	for _, g := range allRules(t, 11, 4) {
		t.Run(g.Name(), func(t *testing.T) {
			grads := make([][]float64, 11)
			for i := range grads {
				grads[i] = []float64{1.5, -2, 0.25}
			}
			out, err := g.Aggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			if !vecmath.ApproxEqual(out, []float64{1.5, -2, 0.25}, 1e-12) {
				t.Errorf("output = %v", out)
			}
		})
	}
}

func TestResilientRulesResistOutliers(t *testing.T) {
	// 4 of 11 gradients are hostile outliers; robust rules must stay near
	// the honest center (1.0 per coordinate), while the average is dragged.
	const n, f, dim = 11, 4, 10
	grads := cloudWithOutliers(n, f, dim, 1.0, 0.05, 100, 7)
	honestMean, err := vecmath.Mean(grads[f:])
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range allRules(t, n, f) {
		t.Run(g.Name(), func(t *testing.T) {
			out, err := g.Aggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			dist := vecmath.Dist(out, honestMean)
			if g.Name() == "average" {
				if dist < 10 {
					t.Errorf("average unexpectedly robust (dist %v)", dist)
				}
				return
			}
			if dist > 1 {
				t.Errorf("%s output drifted %v from honest mean", g.Name(), dist)
			}
		})
	}
}

func TestKrumSelectsAnInputVector(t *testing.T) {
	g, err := NewKrum(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	grads := cloudWithOutliers(11, 4, 5, 1, 0.1, 50, 3)
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range grads {
		if vecmath.ApproxEqual(out, in, 0) {
			found = true
		}
	}
	if !found {
		t.Error("Krum output is not one of its inputs")
	}
	// And the selected vector must be an honest one.
	for _, byz := range grads[:4] {
		if vecmath.ApproxEqual(out, byz, 0) {
			t.Error("Krum selected a Byzantine gradient")
		}
	}
}

func TestKrumDoesNotMutateInputs(t *testing.T) {
	g, _ := NewKrum(7, 1)
	grads := cloudWithOutliers(7, 1, 3, 1, 0.1, 10, 5)
	snapshot := make([][]float64, len(grads))
	for i, v := range grads {
		snapshot[i] = vecmath.Clone(v)
	}
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = 1e9
	for i := range grads {
		if !vecmath.ApproxEqual(grads[i], snapshot[i], 0) {
			t.Fatal("Aggregate mutated its inputs")
		}
	}
}

func TestMultiKrumAveragesSelection(t *testing.T) {
	mk, err := NewMultiKrum(11, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mk.m != 5 {
		t.Errorf("m = %d", mk.m)
	}
	grads := cloudWithOutliers(11, 4, 5, 1, 0.05, 80, 9)
	out, err := mk.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	honestMean, _ := vecmath.Mean(grads[4:])
	if vecmath.Dist(out, honestMean) > 0.5 {
		t.Errorf("MultiKrum drifted: %v", vecmath.Dist(out, honestMean))
	}
}

func TestMDAExactMatchesBruteForceDiameter(t *testing.T) {
	// The subset MDA averages must achieve the minimum diameter among all
	// (n-f)-subsets; verify against the greedy upper bound and a direct
	// enumeration through minDiameterExact's output.
	const n, f, dim = 9, 3, 4
	g, err := NewMDA(n, f)
	if err != nil {
		t.Fatal(err)
	}
	grads := cloudWithOutliers(n, f, dim, 1, 0.3, 20, 11)
	dists, err := pairwiseMatrix(grads)
	if err != nil {
		t.Fatal(err)
	}
	exact := minDiameterExact(dists, n, n-f, getScratch())
	if len(exact) != n-f {
		t.Fatalf("exact subset size = %d", len(exact))
	}
	exactDiam := subsetDiameter(dists, exact)
	greedy := minDiameterGreedy(dists, n, n-f, getScratch())
	if subsetDiameter(dists, greedy) < exactDiam-1e-12 {
		t.Error("greedy beat the exact optimum; exact search is broken")
	}
	// Exhaustive check: no subset beats the exact one.
	idx := make([]int, n-f)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n-f {
			if d := subsetDiameter(dists, idx); d < exactDiam-1e-12 {
				t.Fatalf("found better subset %v (%v < %v)", idx, d, exactDiam)
			}
			return
		}
		for i := start; i < n; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	// Aggregate must equal the mean of the exact subset.
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	chosen := make([][]float64, 0, n-f)
	for _, j := range exact {
		chosen = append(chosen, grads[j])
	}
	want, _ := vecmath.Mean(chosen)
	if !vecmath.ApproxEqual(out, want, 1e-9) {
		t.Errorf("MDA output %v, want subset mean %v", out, want)
	}
}

// pairwiseMatrix returns the squared-distance matrix of grads in fresh rows.
func pairwiseMatrix(grads [][]float64) ([][]float64, error) {
	m := make([][]float64, len(grads))
	for i := range m {
		m[i] = make([]float64, len(grads))
	}
	return m, vecmath.PairwiseSqDistsInto(m, grads)
}

func subsetDiameter(dists [][]float64, subset []int) float64 {
	var diam float64
	for a := 0; a < len(subset); a++ {
		for b := a + 1; b < len(subset); b++ {
			if d := dists[subset[a]][subset[b]]; d > diam {
				diam = d
			}
		}
	}
	return diam
}

func TestMDAGreedyFallback(t *testing.T) {
	g, err := NewMDA(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.MaxEnumerate = 1 // force greedy
	grads := cloudWithOutliers(11, 5, 6, 1, 0.05, 60, 13)
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	honestMean, _ := vecmath.Mean(grads[5:])
	if vecmath.Dist(out, honestMean) > 0.5 {
		t.Errorf("greedy MDA drifted %v", vecmath.Dist(out, honestMean))
	}
	// MaxEnumerate = 1 takes the greedy branch: the output is, bit for bit,
	// the mean of minDiameterGreedy's subset.
	dists, err := pairwiseMatrix(grads)
	if err != nil {
		t.Fatal(err)
	}
	var chosen [][]float64
	for _, j := range minDiameterGreedy(dists, 11, 6, getScratch()) {
		chosen = append(chosen, grads[j])
	}
	want, _ := vecmath.Mean(chosen)
	if !vecmath.ApproxEqual(out, want, 0) {
		t.Errorf("MaxEnumerate=1 output %v, want the greedy subset's mean %v", out, want)
	}
}

func TestMDAZeroByzantineIsAverage(t *testing.T) {
	g, err := NewMDA(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g.KF(), 1) {
		t.Errorf("KF with f=0 = %v, want +Inf", g.KF())
	}
	grads := cloudWithOutliers(5, 0, 3, 1, 0.2, 0, 17)
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := vecmath.Mean(grads)
	if !vecmath.ApproxEqual(out, mean, 1e-12) {
		t.Error("MDA with f=0 is not the average")
	}
}

func TestBulyanResists(t *testing.T) {
	const n, f = 23, 5
	g, err := NewBulyan(n, f)
	if err != nil {
		t.Fatal(err)
	}
	grads := cloudWithOutliers(n, f, 8, 1, 0.05, 40, 19)
	out, err := g.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	honestMean, _ := vecmath.Mean(grads[f:])
	if vecmath.Dist(out, honestMean) > 0.5 {
		t.Errorf("Bulyan drifted %v", vecmath.Dist(out, honestMean))
	}
}

// Property: every rule is permutation-invariant in its inputs.
func TestPermutationInvariance(t *testing.T) {
	rules := allRules(t, 9, 2)
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		grads := make([][]float64, 9)
		for i := range grads {
			grads[i] = rng.NormalVec(make([]float64, 4), 1)
		}
		perm := rng.Perm(9)
		shuffled := make([][]float64, 9)
		for i, p := range perm {
			shuffled[i] = grads[p]
		}
		for _, g := range rules {
			a, err1 := g.Aggregate(grads)
			b, err2 := g.Aggregate(shuffled)
			if err1 != nil || err2 != nil {
				return false
			}
			if !vecmath.ApproxEqual(a, b, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: robust aggregates stay inside the coordinate-wise envelope of
// the inputs (no rule may extrapolate beyond what was submitted).
func TestOutputWithinInputEnvelope(t *testing.T) {
	rules := allRules(t, 9, 2)
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		grads := make([][]float64, 9)
		for i := range grads {
			grads[i] = rng.NormalVec(make([]float64, 3), 2)
		}
		for _, g := range rules {
			out, err := g.Aggregate(grads)
			if err != nil {
				return false
			}
			for j := range out {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, in := range grads {
					lo = math.Min(lo, in[j])
					hi = math.Max(hi, in[j])
				}
				if out[j] < lo-1e-9 || out[j] > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKFValues(t *testing.T) {
	// Paper setting n=11, f=5: MDA's k_F = (n-f)/(√8 f) = 6/(√8·5).
	mda, err := NewMDA(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 6 / (math.Sqrt(8) * 5)
	if math.Abs(mda.KF()-want) > 1e-12 {
		t.Errorf("MDA KF = %v, want %v", mda.KF(), want)
	}
	med, _ := NewMedian(11, 5)
	if math.Abs(med.KF()-1/math.Sqrt(6)) > 1e-12 {
		t.Errorf("Median KF = %v", med.KF())
	}
	mea, _ := NewMeamed(11, 5)
	if math.Abs(mea.KF()-1/math.Sqrt(60)) > 1e-12 {
		t.Errorf("Meamed KF = %v", mea.KF())
	}
	tm, _ := NewTrimmedMean(11, 5)
	wantTM := math.Sqrt(1.0 / (2 * 6 * 6))
	if math.Abs(tm.KF()-wantTM) > 1e-12 {
		t.Errorf("TrimmedMean KF = %v, want %v", tm.KF(), wantTM)
	}
	kr, _ := NewKrum(11, 4)
	if kr.KF() <= 0 || kr.KF() >= 1 {
		t.Errorf("Krum KF = %v outside (0, 1)", kr.KF())
	}
	// MDA must offer the largest bound among rules valid at n=11, f=5
	// (the paper's §5.1 rationale for choosing MDA).
	for _, g := range allRules(t, 11, 5) {
		if g.Name() == "average" || g.Name() == "mda" {
			continue
		}
		if g.KF() >= mda.KF() && g.Name() != "phocas" {
			t.Errorf("%s KF %v >= MDA %v", g.Name(), g.KF(), mda.KF())
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("registry has %d rules: %v", len(names), names)
	}
	for _, name := range names {
		g, err := New(name, 23, 4)
		if err != nil {
			t.Errorf("New(%q, 23, 4): %v", name, err)
			continue
		}
		if g.Name() != name {
			t.Errorf("rule registered as %q reports name %q", name, g.Name())
		}
		if g.N() != 23 {
			t.Errorf("%s N = %d", name, g.N())
		}
	}
	if _, err := New("nope", 5, 1); err == nil { //dpbyz:unregistered
		t.Error("unknown rule did not error")
	}
	res := ResilientNames()
	if len(res) != 9 {
		t.Errorf("ResilientNames = %v", res)
	}
	for _, name := range res {
		if name == "average" {
			t.Error("average listed as resilient")
		}
	}
}
