package attack

import (
	"reflect"
	"testing"

	"dpbyz/internal/gar"
	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// adaptiveHonest is a small honest-gradient fixture with a clear mean
// direction.
func adaptiveHonest() [][]float64 {
	return [][]float64{
		{1, 0.5, -0.2},
		{0.9, 0.6, -0.1},
		{1.1, 0.4, -0.3},
		{1.0, 0.5, -0.2},
	}
}

// AdaptiveNames must report exactly the natively stateful attacks.
func TestAdaptiveNames(t *testing.T) {
	want := []string{"drift", "ipm"}
	if got := AdaptiveNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("AdaptiveNames() = %v, want %v", got, want)
	}
}

// Without rule knowledge IPM is the plain inner-product manipulation at its
// current factor; with a rule injected the line search must pick the
// candidate whose simulated aggregate most damages the descent direction.
func TestIPMLineSearch(t *testing.T) {
	honest := adaptiveHonest()
	mean, err := vecmath.Mean(honest)
	if err != nil {
		t.Fatal(err)
	}

	blind := NewIPM()
	v, err := blind.Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(v, vecmath.ScaleInPlace(1-DefaultIPMNu, vecmath.Clone(mean)), 1e-12) {
		t.Error("rule-free IPM is not plain inner-product manipulation")
	}

	// Against a plain average of n=6, f=2 the most damaging in-bracket factor
	// is the largest one: the line search must walk Nu to NuMax and every
	// crafted step must score no better (for the defender) than the stateless
	// FoE factor it starts from.
	armed := NewIPM()
	g, err := gar.NewTrimmedMean(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	armed.SetGAR(g)
	prevNu := armed.Nu
	for step := 0; step < 12; step++ {
		crafted, err := armed.Craft(honest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(crafted) != len(mean) {
			t.Fatalf("crafted dim %d", len(crafted))
		}
		armed.Observe(step, crafted, honest)
		if armed.Nu < DefaultIPMMin || armed.Nu > DefaultIPMMax {
			t.Fatalf("Nu %v escaped [%v, %v]", armed.Nu, DefaultIPMMin, DefaultIPMMax)
		}
		prevNu = armed.Nu
	}
	_ = prevNu
	if armed.round != 12 {
		t.Errorf("observed rounds %d, want 12", armed.round)
	}
	// The converged factor must beat (or match) the stateless FoE submission
	// under the simulated rule.
	foeVec := vecmath.ScaleInPlace(1-DefaultFoENu, vecmath.Clone(mean))
	tunedVec := armed.craftAt(armed.Nu, mean)
	foeScore, err := armed.simulate(foeVec, mean, honest)
	if err != nil {
		t.Fatal(err)
	}
	tunedScore, err := armed.simulate(tunedVec, mean, honest)
	if err != nil {
		t.Fatal(err)
	}
	if tunedScore > foeScore+1e-12 {
		t.Errorf("tuned factor scores %v, stateless FoE %v — line search made the attack weaker", tunedScore, foeScore)
	}
}

// IPM state round-trips: a restored attack crafts bit-identically.
func TestIPMStateRoundTrip(t *testing.T) {
	honest := adaptiveHonest()
	g, err := gar.NewMedian(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewIPM()
	a.SetGAR(g)
	for step := 0; step < 5; step++ {
		if _, err := a.Craft(honest, nil); err != nil {
			t.Fatal(err)
		}
		a.Observe(step, nil, nil)
	}
	st := a.State()
	if st.Round != 5 || st.Gain == 0 {
		t.Fatalf("state %+v", st)
	}

	b := NewIPM()
	b.SetGAR(g)
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	av, err1 := a.Craft(honest, nil)
	bv, err2 := b.Craft(honest, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !vecmath.ApproxEqual(av, bv, 0) {
		t.Error("restored IPM crafts differently")
	}
	if err := b.SetState(State{Drift: []float64{1}}); err == nil {
		t.Error("IPM accepted drift state")
	}
}

// Drift opens as a sign flip, then pushes along the accumulated aggregate.
func TestDriftAttack(t *testing.T) {
	honest := adaptiveHonest()
	mean, err := vecmath.Mean(honest)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDrift()
	v, err := d.Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(v, vecmath.ScaleInPlace(-DefaultDriftNu, vecmath.Clone(mean)), 1e-12) {
		t.Error("pre-observation drift is not the sign-flip opening")
	}

	agg := []float64{0, 0, 1}
	d.Observe(0, agg, honest)
	v, err = d.Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crafted = mean − nu·|mean|·driftDirection: the displacement must OPPOSE
	// the observed aggregate (the accumulated descent history).
	disp := vecmath.SubInto(make([]float64, len(v)), v, mean)
	if disp[2] >= 0 || vecmath.Norm(disp) < 1e-6 {
		t.Errorf("drift displacement %v does not oppose the observed aggregate", disp)
	}

	// State round-trip restores the accumulated drift bit-identically, and
	// the snapshot owns its memory.
	st := d.State()
	st2 := d.State()
	d.Observe(1, []float64{5, 5, 5}, honest)
	if !reflect.DeepEqual(st, st2) {
		t.Error("snapshot mutated by later observation")
	}
	e := NewDrift()
	if err := e.SetState(st); err != nil {
		t.Fatal(err)
	}
	ev, err := e.Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDrift()
	restored.Observe(0, agg, honest)
	rv, err := restored.Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(ev, rv, 0) {
		t.Error("restored drift crafts differently")
	}
	if err := e.SetState(State{Gain: 2}); err == nil {
		t.Error("drift accepted gain state")
	}
}

// Adaptive attacks are deterministic and reject empty honest sets like every
// other attack.
func TestAdaptiveEdgeCases(t *testing.T) {
	for _, name := range []string{"ipm", "drift"} {
		a, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Craft(nil, randx.New(1)); err == nil {
			t.Errorf("%s accepted empty honest set", name)
		}
	}
}
