package dp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRDPValue(t *testing.T) {
	// 10 * 2 / (2*9).
	if got, want := gaussianRDP(3, 10, 2), 10.0/9.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("RDP = %v, want %v", got, want)
	}
	// The conversion at one release is the grid minimum of ρ(α) + log(1/δ)/(α−1).
	got, err := RDPEpsilon(3, 1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range rdpAlphas {
		if bound := gaussianRDP(3, 1, alpha) + math.Log(1e5)/(alpha-1); got > bound {
			t.Errorf("epsilon %v above the α=%v bound %v", got, alpha, bound)
		}
	}
}

func TestRDPEpsilonValidation(t *testing.T) {
	if _, err := RDPEpsilon(0, 1, 1e-6); err == nil {
		t.Error("zero multiplier did not error")
	}
	if _, err := RDPEpsilon(math.NaN(), 1, 1e-6); err == nil {
		t.Error("NaN multiplier did not error")
	}
	if _, err := RDPEpsilon(2, -1, 1e-6); err == nil {
		t.Error("negative releases did not error")
	}
	if _, err := RDPEpsilon(2, 1, 0); err == nil {
		t.Error("delta = 0 did not error")
	}
	if _, err := RDPEpsilon(2, 1, 1); err == nil {
		t.Error("delta = 1 did not error")
	}
	if eps, err := RDPEpsilon(2, 0, 1e-6); err != nil || eps != 0 {
		t.Errorf("zero releases = %v, %v; want 0, nil", eps, err)
	}
}

// The multiplier is the conversion's only mechanism parameter: a
// non-positive one is rejected, a positive one gives a finite positive ε.
func TestRDPAccountantConstruction(t *testing.T) {
	for _, m := range []float64{0, -2, math.Inf(-1)} {
		if _, err := RDPEpsilon(m, 1, 1e-6); err == nil {
			t.Errorf("multiplier %v did not error", m)
		}
	}
	eps, err := RDPEpsilon(2, 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		t.Errorf("epsilon = %v, want finite and positive", eps)
	}
}

// The calibrated gradient mechanism's multiplier σ/Δ does not depend on the
// sensitivity: it is √(2·ln(1.25/δ))/ε, the multiplier the run ledger
// passes to RDPEpsilon.
func TestRDPAccountantForGradient(t *testing.T) {
	bud := Budget{Epsilon: 0.2, Delta: 1e-6}
	want := math.Sqrt(2*math.Log(1.25/1e-6)) / 0.2
	for _, sens := range []float64{1e-3, 0.4, 7} {
		sigma, err := GaussianSigma(sens, bud)
		if err != nil {
			t.Fatal(err)
		}
		if got := sigma / sens; math.Abs(got-want) > 1e-9*want {
			t.Errorf("sensitivity %v: multiplier = %v, want %v", sens, got, want)
		}
	}
	if _, err := GaussianSigma(1, Budget{}); err == nil {
		t.Error("invalid budget did not error")
	}
}

// Zero releases spend nothing; a negative count is an error, not read as
// zero; a positive count spends.
func TestRDPRecordIgnoresNonPositive(t *testing.T) {
	if eps, err := RDPEpsilon(2, 0, 1e-6); err != nil || eps != 0 {
		t.Errorf("zero releases = %v, %v; want 0, nil", eps, err)
	}
	if _, err := RDPEpsilon(2, -5, 1e-6); err == nil {
		t.Error("negative releases did not error")
	}
	if eps, err := RDPEpsilon(2, 3, 1e-6); err != nil || !(eps > 0) {
		t.Errorf("three releases = %v, %v; want positive, nil", eps, err)
	}
}

// RDP composes additively at every α: k releases cost k times one. At the
// paper's per-step budget over 1000 steps, basic composition gives ε = 200
// and the RDP conversion at the same δ gives about 7.02.
func TestBasicComposition(t *testing.T) {
	for _, alpha := range rdpAlphas {
		one, many := gaussianRDP(3, 1, alpha), gaussianRDP(3, 25, alpha)
		if math.Abs(many-25*one) > 1e-12*many {
			t.Errorf("α=%v: 25 releases cost %v, want 25·%v", alpha, many, one)
		}
	}
	m := math.Sqrt(2*math.Log(1.25/1e-6)) / 0.2
	eps, err := RDPEpsilon(m, 1000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if basic := 1000 * 0.2; math.Abs(eps-7.02) > 0.01 || eps >= basic {
		t.Errorf("RDP epsilon = %v, want 7.02 (basic composition: %v)", eps, basic)
	}
}

// The returned ε is the grid minimum of ρ(α) + log(1/δ)/(α−1), computed
// here independently, and an invalid δ is rejected.
func TestRDPTotalBudget(t *testing.T) {
	got, err := RDPEpsilon(5, 100, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Inf(1)
	for _, alpha := range rdpAlphas {
		want = math.Min(want, 100*alpha/(2*25)+math.Log(1e5)/(alpha-1))
	}
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("epsilon = %v, want %v", got, want)
	}
	if _, err := RDPEpsilon(5, 100, 0); err == nil {
		t.Error("bad delta did not error")
	}
}

// The headline property: for many releases at the paper's per-step budget,
// RDP accounting beats both classical composition theorems (Dwork & Roth,
// Thm 3.16 and 3.20).
func TestRDPTighterThanClassicalComposition(t *testing.T) {
	perStep := Budget{Epsilon: 0.2, Delta: 1e-6}
	const steps = 1000
	// The multiplier σ/Δ of the calibrated gradient mechanism: the
	// sensitivity cancels from GaussianSigma.
	m := math.Sqrt(2*math.Log(1.25/perStep.Delta)) / perStep.Epsilon
	rdpEps, err := RDPEpsilon(m, steps, perStep.Delta)
	if err != nil {
		t.Fatal(err)
	}
	basic := steps * perStep.Epsilon
	slack := perStep.Delta / 2
	advanced := perStep.Epsilon*math.Sqrt(2*steps*math.Log(1/slack)) +
		steps*perStep.Epsilon*(math.Exp(perStep.Epsilon)-1)
	if rdpEps >= advanced {
		t.Errorf("RDP eps %v not below advanced %v", rdpEps, advanced)
	}
	if rdpEps >= basic {
		t.Errorf("RDP eps %v not below basic %v", rdpEps, basic)
	}
}

// Property: the RDP epsilon is monotone in the number of releases and in the
// inverse noise multiplier.
func TestRDPMonotonicity(t *testing.T) {
	f := func(kRaw uint8, mRaw uint8) bool {
		k := int(kRaw)%100 + 1
		m := 1 + float64(mRaw)/16
		e1, err1 := RDPEpsilon(m, k, 1e-6)
		e2, err2 := RDPEpsilon(m, k+10, 1e-6)
		e3, err3 := RDPEpsilon(2*m, k, 1e-6)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		// More releases: more spend. More noise: less spend.
		return e2 > e1 && e3 < e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
