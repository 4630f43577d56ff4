package spec

import (
	"context"
	"errors"
	"math"
	"testing"
)

// ledgerSpec is a Spec at the paper's per-step budget (ε = 0.2, δ = 10⁻⁶,
// Gmax = 10⁻², b = 50) in the theory-faithful ordering.
func ledgerSpec() Spec {
	return Spec{
		Mechanism:         &MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		BatchSize:         50,
		WorkerMomentum:    0.99,
		MomentumPostNoise: true,
		ClipNorm:          0.01,
	}
}

// The ledger's table at the paper's per-step budget. The basic column is a
// Laplace Spec's pure-ε composition, T·0.2; the RDP column was computed
// with the Mironov accountant this ledger replaced, at the same δ.
func TestPrivacyLedger(t *testing.T) {
	for _, row := range []struct {
		releases   int
		basic, rdp float64
	}{
		{100, 20, 2.055},
		{1000, 200, 7.015},
		{3000, 600, 13.01},
	} {
		s := ledgerSpec()
		got := s.Privacy(row.releases)
		if got.Method != "rdp" || got.Releases != row.releases || got.Delta != 1e-6 ||
			math.Abs(got.Epsilon-row.rdp) > 5e-4*row.rdp {
			t.Errorf("T=%d: gaussian ledger %+v, want rdp eps %.4g at delta 1e-06", row.releases, got, row.rdp)
		}
		if got.Epsilon >= row.basic {
			t.Errorf("T=%d: rdp eps %v not below basic %v", row.releases, got.Epsilon, row.basic)
		}
		s.Mechanism = &MechanismSpec{Name: "laplace", Epsilon: 0.2}
		lap := s.Privacy(row.releases)
		if want := (Privacy{Epsilon: row.basic, Releases: row.releases, Method: "basic"}); math.Abs(lap.Epsilon-want.Epsilon) > 1e-9 ||
			lap.Delta != 0 || lap.Method != want.Method || lap.Releases != want.Releases {
			t.Errorf("T=%d: laplace ledger %+v, want %+v", row.releases, lap, want)
		}
	}

	// A σ-only Spec at the calibrated σ reports the same spend.
	sigmaOnly := ledgerSpec()
	sigmaOnly.Mechanism = &MechanismSpec{Name: "gaussian", Sigma: 2 * 0.01 / 50 * math.Sqrt(2*math.Log(1.25e6)) / 0.2, Delta: 1e-6}
	want := ledgerSpec()
	if got, want := sigmaOnly.Privacy(1000), want.Privacy(1000); got.Method != "rdp" || math.Abs(got.Epsilon-want.Epsilon) > 1e-9 {
		t.Errorf("σ-only ledger %+v, want %+v", got, want)
	}

	notCovered := map[string]func(*Spec){
		"paper ordering":      func(s *Spec) { s.MomentumPostNoise = false },
		"no clipping":         func(s *Spec) { s.ClipNorm = 0 },
		"σ-only without δ":    func(s *Spec) { s.Mechanism = &MechanismSpec{Name: "gaussian", Sigma: 0.01} },
		"laplace scale given": func(s *Spec) { s.Mechanism = &MechanismSpec{Name: "laplace", Epsilon: 0.2, Sigma: 0.01} },
	}
	for name, mutate := range notCovered {
		s := ledgerSpec()
		mutate(&s)
		if got := s.Privacy(1000); got != (Privacy{Releases: 1000, Method: "not covered"}) {
			t.Errorf("%s: %+v, want not covered and no number", name, got)
		}
	}
	noNoise := ledgerSpec()
	noNoise.Mechanism = nil
	if got := noNoise.Privacy(10); got != (Privacy{Releases: 10, Method: "none"}) {
		t.Errorf("no mechanism: %+v", got)
	}

	s := ledgerSpec()
	if allocs := testing.AllocsPerRun(100, func() { s.Privacy(1000) }); allocs != 0 {
		t.Errorf("Privacy allocates %v times per call", allocs)
	}
}

// cancelAfter cancels its run once k rounds have committed.
type cancelAfter struct {
	k      int
	cancel context.CancelFunc
}

func (c *cancelAfter) OnStep(ev StepEvent) error {
	if ev.Step+1 == c.k {
		c.cancel()
	}
	return nil
}

// Every run of a Spec reports one spend for its Steps rounds: uninterrupted
// or resumed at step trajectoryResumeAt, on the local backend and on the
// cluster backend in the domain where a cluster resume is exact (the plain
// trajectory Spec: a fixed, synchronous cohort). A run cancelled after k
// commits reports k + 1 releases, counted from step 0 after a resume too:
// the round in flight may already have been released.
func TestPrivacyAcrossBackendsAndResume(t *testing.T) {
	s := trajectorySpecs()["plain"]
	want := s.Privacy(s.Steps)
	if want.Method != "rdp" || want.Releases != s.Steps {
		t.Fatalf("plain Spec ledger %+v, want rdp over %d releases", want, s.Steps)
	}
	for _, b := range []Backend{&LocalBackend{}, &ClusterBackend{}} {
		snap := snapshotAt(t, b, s, trajectoryResumeAt)
		for name, opts := range map[string][]Option{"uninterrupted": nil, "resumed": {WithResume(snap)}} {
			res, err := b.Run(context.Background(), s, opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name(), name, err)
			}
			if res.Privacy != want {
				t.Errorf("%s %s: %+v, want %+v", b.Name(), name, res.Privacy, want)
			}
		}
		for name, opts := range map[string][]Option{"fresh": nil, "resumed": {WithResume(snap)}} {
			const k = 13
			ctx, cancel := context.WithCancel(context.Background())
			res, err := b.Run(ctx, s, append(opts, WithObserver(&cancelAfter{k: k, cancel: cancel}))...)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s %s: error %v, want context.Canceled", b.Name(), name, err)
			}
			if res == nil || res.Privacy != s.Privacy(k+1) {
				t.Errorf("%s %s cancelled after %d commits: %+v, want %+v", b.Name(), name, k, res, s.Privacy(k+1))
			}
		}
	}
}
