package dp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dpbyz/internal/randx"
)

func TestBudgetValidate(t *testing.T) {
	tests := []struct {
		name    string
		give    Budget
		wantErr error
	}{
		{name: "valid", give: Budget{Epsilon: 0.2, Delta: 1e-6}},
		{name: "paper budget", give: Budget{Epsilon: 0.2, Delta: 1e-6}},
		{name: "epsilon zero", give: Budget{Epsilon: 0, Delta: 0.5}, wantErr: ErrBadEpsilon},
		{name: "epsilon one", give: Budget{Epsilon: 1, Delta: 0.5}, wantErr: ErrBadEpsilon},
		{name: "epsilon negative", give: Budget{Epsilon: -0.1, Delta: 0.5}, wantErr: ErrBadEpsilon},
		{name: "delta zero", give: Budget{Epsilon: 0.5, Delta: 0}, wantErr: ErrBadDelta},
		{name: "delta one", give: Budget{Epsilon: 0.5, Delta: 1}, wantErr: ErrBadDelta},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if tt.wantErr == nil && err != nil {
				t.Errorf("unexpected error %v", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestGradientSensitivity(t *testing.T) {
	got, err := GradientSensitivity(0.01, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 0.01 / 50.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("sensitivity = %v, want %v", got, want)
	}
	if _, err := GradientSensitivity(0, 50); err == nil {
		t.Error("zero gmax did not error")
	}
	if _, err := GradientSensitivity(0.01, 0); err == nil {
		t.Error("zero batch did not error")
	}
}

func TestGaussianSigmaFormula(t *testing.T) {
	// Paper's Fig. 2 setting: Gmax = 1e-2, b = 50, eps = 0.2, delta = 1e-6.
	bud := Budget{Epsilon: 0.2, Delta: 1e-6}
	got, err := NoiseSigmaForGradient(0.01, 50, bud)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 0.01 * math.Sqrt(2*math.Log(1.25/1e-6)) / (50 * 0.2)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("sigma = %v, want %v", got, want)
	}
	if _, err := GaussianSigma(0, bud); err == nil {
		t.Error("zero sensitivity did not error")
	}
	if _, err := GaussianSigma(1, Budget{Epsilon: 2, Delta: 0.5}); err == nil {
		t.Error("invalid budget did not error")
	}
}

// Property: sigma decreases in both batch size and epsilon (more data or
// a looser budget means less noise).
func TestSigmaMonotonicity(t *testing.T) {
	f := func(bRaw uint8, eRaw uint8) bool {
		b := int(bRaw)%500 + 1
		eps := 0.01 + 0.98*float64(eRaw)/255
		bud := Budget{Epsilon: eps, Delta: 1e-6}
		s1, err1 := NoiseSigmaForGradient(0.01, b, bud)
		s2, err2 := NoiseSigmaForGradient(0.01, b+1, bud)
		if err1 != nil || err2 != nil {
			return false
		}
		if s2 >= s1 {
			return false
		}
		budTighter := Budget{Epsilon: eps * 0.9, Delta: 1e-6}
		s3, err3 := NoiseSigmaForGradient(0.01, b, budTighter)
		return err3 == nil && s3 > s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGaussianMechanism(t *testing.T) {
	bud := Budget{Epsilon: 0.2, Delta: 1e-6}
	g, err := NewGaussian(0.01, 50, bud)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gaussian" {
		t.Errorf("Name = %q", g.Name())
	}
	if got := g.PerCoordinateVariance(); math.Abs(got-g.Sigma()*g.Sigma()) > 1e-15 {
		t.Errorf("PerCoordinateVariance = %v", got)
	}
	// Empirical variance of the injected noise must match sigma^2.
	const n = 200000
	v := make([]float64, n)
	g.Perturb(v, randx.New(1))
	var sumSq float64
	for _, x := range v {
		sumSq += x * x
	}
	emp := sumSq / n
	want := g.Sigma() * g.Sigma()
	if math.Abs(emp-want)/want > 0.05 {
		t.Errorf("empirical noise variance %v, want %v", emp, want)
	}
}

func TestGaussianPerturbAddsToSignal(t *testing.T) {
	g, err := NewGaussianWithSigma(0.001)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{100, -100}
	g.Perturb(v, randx.New(2))
	if math.Abs(v[0]-100) > 1 || math.Abs(v[1]+100) > 1 {
		t.Errorf("Perturb destroyed the signal: %v", v)
	}
	if v[0] == 100 && v[1] == -100 {
		t.Error("Perturb added no noise")
	}
}

func TestNewGaussianWithSigmaValidation(t *testing.T) {
	if _, err := NewGaussianWithSigma(0); err == nil {
		t.Error("zero sigma did not error")
	}
}

func TestLaplaceMechanism(t *testing.T) {
	l, err := NewLaplace(1.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "laplace" {
		t.Errorf("Name = %q", l.Name())
	}
	if got, want := l.Sigma(), 2.0; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
	if got, want := l.PerCoordinateVariance(), 8.0; got != want {
		t.Errorf("variance = %v, want %v", got, want)
	}
	const n = 200000
	v := make([]float64, n)
	l.Perturb(v, randx.New(3))
	var sumSq float64
	for _, x := range v {
		sumSq += x * x
	}
	emp := sumSq / n
	if math.Abs(emp-8)/8 > 0.05 {
		t.Errorf("empirical Laplace variance %v, want 8", emp)
	}
}

func TestLaplaceValidation(t *testing.T) {
	if _, err := NewLaplace(0, 0.5); err == nil {
		t.Error("zero sensitivity did not error")
	}
	if _, err := NewLaplace(1, 0); err == nil {
		t.Error("zero epsilon did not error")
	}
	if _, err := NewLaplaceForGradient(0.01, 50, 0, 0.5); err == nil {
		t.Error("zero dim did not error")
	}
	if _, err := NewLaplaceForGradient(0, 50, 10, 0.5); err == nil {
		t.Error("bad gmax did not error")
	}
}

func TestLaplaceForGradientScale(t *testing.T) {
	l, err := NewLaplaceForGradient(0.01, 50, 69, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := (2 * 0.01 / 50) * math.Sqrt(69) / 0.2
	if math.Abs(l.Sigma()-want) > 1e-15 {
		t.Errorf("scale = %v, want %v", l.Sigma(), want)
	}
}
