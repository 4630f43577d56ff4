package spec

import (
	"context"
	"testing"
	"time"
)

// kernelScenario is the chaos-cohort scenario re-pointed at a Krum-family
// rule so the kernel knob actually engages (trimmed mean has no pairwise
// kernel to sketch). n = 13 keeps the JL shortlist (9 candidates) strictly
// smaller than the cohort, so the sketched path really filters.
func kernelScenario(kernel string) Spec {
	s := scenario()
	s.Name = "kernel-" + kernel
	s.GAR = GARSpec{Name: "krum", N: 13, F: 2, Kernel: kernel}
	return s
}

// TestKernelSketchedTrains covers the JL mode end to end: the sketched
// kernel is approximate by design (no bit-identity claim under an adaptive
// attack), but the run must stay finite and actually learn the task.
func TestKernelSketchedTrains(t *testing.T) {
	res, err := (&LocalBackend{}).Run(context.Background(), kernelScenario("sketched"))
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, "sketched", res, 0.2, 0.24)
}

// TestClusterGARAwareAttackersOwnTheirRule is the failing-first test for
// rule sharing on the cluster backend: every in-process Byzantine worker's
// GAR-aware attacker line-searches by aggregating, concurrently with the
// server and with the other f−1 attackers, so each needs its own rule —
// gar.Sketched builds its sketcher lazily on first use and is not safe to
// share. Wide gradients make the first calls overlap; run under -race (CI
// does, with -count=10) the shared instance is reported as a data race in
// ensureSketcher.
func TestClusterGARAwareAttackersOwnTheirRule(t *testing.T) {
	s := kernelScenario("sketched")
	s.Data = DataSpec{N: 400, Features: 4000}
	s.GAR.F = 4
	s.Attack = &AttackSpec{Name: "ipm"}
	s.Steps = 4
	s.BatchSize = 10
	s.AccuracyEvery = 0
	res, err := (&ClusterBackend{}).Run(context.Background(), s, WithRoundTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !allFinite(res.Params) {
		t.Fatal("non-finite final params")
	}
}
