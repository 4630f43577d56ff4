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

// TestClusterByzantineWorkersShareOneAdversary runs f = 4 in-process
// Byzantine workers that share one adversary: the GAR-aware ipm
// line-searches and observes by aggregating with gar.Sketched, which builds
// its sketcher lazily and is not safe to share, while the server aggregates
// with its own instance and the other workers wait on the adversary's
// round. Wide gradients make the calls overlap; run under -race (CI does,
// with -count=10) a shared rule or an unguarded round shows as a data race.
// The run is a fixed, synchronous cohort, so it must end on the local
// backend's bits.
func TestClusterByzantineWorkersShareOneAdversary(t *testing.T) {
	s := kernelScenario("sketched")
	s.Data = DataSpec{N: 400, Features: 4000}
	s.GAR.F = 4
	s.Attack = &AttackSpec{Name: "ipm"}
	s.Steps = 4
	s.BatchSize = 10
	s.AccuracyEvery = 0
	ctx := context.Background()
	res, err := (&ClusterBackend{}).Run(ctx, s, WithRoundTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	local, err := (&LocalBackend{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if pinOf(res).params != pinOf(local).params {
		t.Fatal("cluster and local final params differ")
	}
}
