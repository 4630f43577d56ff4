package attack

import (
	"errors"
	"math"
	"testing"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

func honestSample() [][]float64 {
	return [][]float64{
		{1, 10},
		{2, 10},
		{3, 10},
	}
}

func TestALIECraft(t *testing.T) {
	a := NewALIE()
	got, err := a.Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mean = (2, 10), std = (sqrt(2/3), 0) => crafted = mean - 1.5*std.
	wantStd := math.Sqrt(2.0 / 3.0)
	want := []float64{2 - 1.5*wantStd, 10}
	if !vecmath.ApproxEqual(got, want, 1e-12) {
		t.Errorf("ALIE = %v, want %v", got, want)
	}
}

func TestALIECustomNu(t *testing.T) {
	a := &ALIE{Nu: 0}
	got, err := a.Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(got, []float64{2, 10}, 1e-12) {
		t.Errorf("nu=0 should reproduce the mean, got %v", got)
	}
}

func TestFoECraft(t *testing.T) {
	f := NewFallOfEmpires()
	got, err := f.Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// (1 - 1.1) * mean = -0.1 * (2, 10).
	want := []float64{-0.2, -1.0}
	if !vecmath.ApproxEqual(got, want, 1e-12) {
		t.Errorf("FoE = %v, want %v", got, want)
	}
}

func TestFoEDoesNotMutateInputs(t *testing.T) {
	honest := honestSample()
	snapshot := make([][]float64, len(honest))
	for i, v := range honest {
		snapshot[i] = vecmath.Clone(v)
	}
	if _, err := NewFallOfEmpires().Craft(honest, nil); err != nil {
		t.Fatal(err)
	}
	for i := range honest {
		if !vecmath.ApproxEqual(honest[i], snapshot[i], 0) {
			t.Fatal("FoE mutated the honest gradients")
		}
	}
}

func TestSignFlip(t *testing.T) {
	s := NewSignFlip()
	got, err := s.Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(got, []float64{-2, -10}, 1e-12) {
		t.Errorf("SignFlip = %v", got)
	}
	s2 := &SignFlip{Kappa: 3}
	got2, err := s2.Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(got2, []float64{-6, -30}, 1e-12) {
		t.Errorf("SignFlip kappa=3 = %v", got2)
	}
}

func TestZero(t *testing.T) {
	got, err := NewZero().Craft(honestSample(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(got, []float64{0, 0}, 0) {
		t.Errorf("Zero = %v", got)
	}
}

func TestRandomNoise(t *testing.T) {
	r := &RandomNoise{Sigma: 2}
	got, err := r.Craft(honestSample(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("dim = %d", len(got))
	}
	if got[0] == 0 && got[1] == 0 {
		t.Error("noise attack produced zeros")
	}
	if _, err := r.Craft(honestSample(), nil); err == nil {
		t.Error("nil stream did not error")
	}
}

func TestRandomNoiseDeterministicPerSeed(t *testing.T) {
	r := &RandomNoise{Sigma: 1}
	a, err := r.Craft(honestSample(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Craft(honestSample(), randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(a, b, 0) {
		t.Error("RandomNoise not deterministic for equal seeds")
	}
}

func TestEmptyHonestErrors(t *testing.T) {
	attacks := []Attack{NewALIE(), NewFallOfEmpires(), NewSignFlip(), NewZero()}
	r := &RandomNoise{Sigma: 1}
	attacks = append(attacks, r)
	for _, a := range attacks {
		if _, err := a.Craft(nil, randx.New(1)); !errors.Is(err, ErrNoHonestGradients) {
			t.Errorf("%s empty-input error = %v", a.Name(), err)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("registry has %d attacks: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
	for _, name := range names {
		a, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if a.Name() != name {
			t.Errorf("attack %q reports name %q", name, a.Name())
		}
	}
	if _, err := New("bogus"); err == nil { //dpbyz:unregistered
		t.Error("unknown attack did not error")
	}
}

func TestPaperDefaults(t *testing.T) {
	if NewALIE().Nu != 1.5 {
		t.Errorf("ALIE default nu = %v, want 1.5", NewALIE().Nu)
	}
	if NewFallOfEmpires().Nu != 1.1 {
		t.Errorf("FoE default nu = %v, want 1.1", NewFallOfEmpires().Nu)
	}
}

func TestMimic(t *testing.T) {
	honest := honestSample()
	got, err := NewMimic().Craft(honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(got, []float64{1, 10}, 0) {
		t.Errorf("Mimic = %v, want honest[0]", got)
	}
	// The crafted copy must not alias the honest gradient.
	got[0] = 99
	if honest[0][0] != 1 {
		t.Error("Mimic aliased the honest gradient")
	}
}
