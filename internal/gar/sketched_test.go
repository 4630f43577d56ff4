package gar

import (
	"testing"

	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// sketchedFixtures is the shortlist property battery: Gaussian clouds,
// planted-outlier clouds, and tie-dense colluder clouds (identical Byzantine
// submissions).
func sketchedFixtures() []struct {
	name  string
	grads [][]float64
	f     int
} {
	type fixture = struct {
		name  string
		grads [][]float64
		f     int
	}
	var fixtures []fixture
	for seed := uint64(1); seed <= 5; seed++ {
		cloud, _ := gaussianCloud(randx.New(seed), propertyN, propertyD, 1)
		fixtures = append(fixtures,
			fixture{"gaussian", cloud, propertyF},
			fixture{"outliers", cloudWithOutliers(13, 2, 31, 1, 0.3, 25, seed), 2},
		)
	}
	tied, _ := gaussianCloud(randx.New(99), 11, 16, 1)
	for i := 1; i < 5; i++ {
		copy(tied[i], tied[0])
	}
	fixtures = append(fixtures, fixture{"colluders", tied, 2})
	return fixtures
}

// TestSketchedMatchesExactOnBattery is the tentpole property test: on every
// battery fixture, the JL-sketched wrapper (sketch-space shortlist + exact
// re-check) selects exactly what the exact kernel selects, so the outputs
// are bit-identical.
func TestSketchedMatchesExactOnBattery(t *testing.T) {
	for _, inner := range []string{"krum", "multikrum", "bulyan", "mda"} {
		for _, fx := range sketchedFixtures() {
			if inner == "mda" && fx.name != "outliers" {
				// MDA's subset objective has no neighbourhood-shaped
				// answer on an isotropic cloud or under heavy ties:
				// exact enumeration finds min-diameter subsets that are
				// not any center's nearest neighbourhood, so even the
				// exact greedy heuristic diverges there. The shortlist
				// property is only claimed where the outlier structure
				// is separable.
				continue
			}
			n := len(fx.grads)
			d := len(fx.grads[0])
			exact, err := New(inner, n, fx.f)
			if err != nil {
				continue // fixture shape outside the rule's constraint
			}
			sk, err := NewSketched(inner, n, fx.f, SketchOptions{
				SketchDim: 8, Seed: 42,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", inner, fx.name, err)
			}
			want, err := exact.Aggregate(fx.grads)
			if err != nil {
				t.Fatalf("%s/%s exact: %v", inner, fx.name, err)
			}
			got := make([]float64, d)
			if err := sk.AggregateInto(got, fx.grads); err != nil {
				t.Fatalf("%s/%s sketched: %v", inner, fx.name, err)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s on %s: coordinate %d differs: %v != %v",
						sk.Name(), fx.name, j, got[j], want[j])
				}
			}
		}
	}
}

// driftingCohort yields rounds of submissions that drift by small momentum
// steps, with an optional large adversarial jump at jumpRound.
func driftingCohort(t *testing.T, n, d, rounds int, stepSigma float64, jumpRound int, seed uint64) [][][]float64 {
	t.Helper()
	rng := randx.New(seed)
	cur := make([][]float64, n)
	for i := range cur {
		cur[i] = make([]float64, d)
		rng.NormalVec(cur[i], 1)
	}
	out := make([][][]float64, rounds)
	step := make([]float64, d)
	for r := range out {
		sigma := stepSigma
		if r == jumpRound {
			sigma = 50 * stepSigma // adversarial delta: invalidate the bounds
		}
		snap := make([][]float64, n)
		for i := range cur {
			rng.NormalVec(step, sigma)
			vecmath.AddInto(cur[i], cur[i], step)
			snap[i] = append([]float64(nil), cur[i]...)
		}
		out[r] = snap
	}
	return out
}

// TestIncrementalBitIdenticalAcrossRounds pins the incremental mode's core
// guarantee: across a drifting multi-round trajectory — including an
// adversarial jump large enough to invalidate the drift bounds mid-window —
// every round's output is bit-identical to the exact rule's.
func TestIncrementalBitIdenticalAcrossRounds(t *testing.T) {
	const n, f, d, rounds = 13, 2, 64, 12
	for _, inner := range []string{"krum", "multikrum", "bulyan"} {
		exact, err := New(inner, n, f)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := NewSketched(inner, n, f, SketchOptions{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		cohort := driftingCohort(t, n, d, rounds, 0.02, 7, uint64(len(inner)))
		got := make([]float64, d)
		for r, grads := range cohort {
			sk.BeginRound(r)
			want, err := exact.Aggregate(grads)
			if err != nil {
				t.Fatalf("%s round %d exact: %v", inner, r, err)
			}
			if err := sk.AggregateInto(got, grads); err != nil {
				t.Fatalf("%s round %d: %v", inner, r, err)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s round %d: coordinate %d differs: %v != %v",
						sk.Name(), r, j, got[j], want[j])
				}
			}
		}
		if sk.Refreshes() < 2 {
			t.Errorf("%s: expected the adversarial jump to force a refresh beyond the initial anchor, got %d",
				sk.Name(), sk.Refreshes())
		}
	}
}

// TestIncrementalDriftTriggersRefresh drives adversarial per-round deltas
// that exceed the drift threshold every round and asserts the full-recompute
// escape hatch fires before the bounds can diverge: refresh count tracks the
// round count, and the output stays pinned to the exact rule throughout.
func TestIncrementalDriftTriggersRefresh(t *testing.T) {
	const n, f, d, rounds = 13, 2, 32, 6
	exact, err := New("krum", n, f)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSketched("krum", n, f, SketchOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every round's step is comparable to the cohort diameter, far past the
	// DefaultDriftFraction threshold.
	cohort := driftingCohort(t, n, d, rounds, 2.0, -1, 7)
	got := make([]float64, d)
	for r, grads := range cohort {
		sk.BeginRound(r)
		want, err := exact.Aggregate(grads)
		if err != nil {
			t.Fatal(err)
		}
		if err := sk.AggregateInto(got, grads); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d: diverged at coordinate %d before refresh", r, j)
			}
		}
	}
	if sk.Refreshes() < rounds {
		t.Errorf("adversarial drift every round must refresh every round: %d refreshes over %d rounds",
			sk.Refreshes(), rounds)
	}

	// Small steps for contrast: the bounds stay tight and the state must NOT
	// refresh every round (that would degenerate to the exact kernel).
	sk2, err := NewSketched("krum", n, f, SketchOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	quiet := driftingCohort(t, n, d, rounds, 0.001, -1, 11)
	for r, grads := range quiet {
		sk2.BeginRound(r)
		if err := sk2.AggregateInto(got, grads); err != nil {
			t.Fatal(err)
		}
	}
	if sk2.Refreshes() != 1 {
		t.Errorf("quiet trajectory should keep the initial anchor: %d refreshes", sk2.Refreshes())
	}
}

// TestSketchedRoundJumpResets pins the RoundAware contract: a
// non-consecutive round (resume / rollback) discards the incremental
// reference, forcing a fresh anchor on the next aggregation.
func TestSketchedRoundJumpResets(t *testing.T) {
	const n, f, d = 13, 2, 16
	sk, err := NewSketched("krum", n, f, SketchOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	grads := intoTestGrads(d, 3)
	dst := make([]float64, d)
	sk.BeginRound(0)
	if err := sk.AggregateInto(dst, grads); err != nil {
		t.Fatal(err)
	}
	sk.BeginRound(1)
	if err := sk.AggregateInto(dst, grads); err != nil {
		t.Fatal(err)
	}
	if sk.Refreshes() != 1 {
		t.Fatalf("consecutive rounds should keep the anchor: %d refreshes", sk.Refreshes())
	}
	sk.BeginRound(5) // jump: checkpoint resume
	if err := sk.AggregateInto(dst, grads); err != nil {
		t.Fatal(err)
	}
	if sk.Refreshes() != 2 {
		t.Errorf("round jump must re-anchor: %d refreshes", sk.Refreshes())
	}
}

// TestSketchedConstructorValidation covers the wrapper's error paths and
// naming.
func TestSketchedConstructorValidation(t *testing.T) {
	if _, err := NewSketched("median", 13, 2, SketchOptions{}); err == nil {
		t.Error("accepted unsupported inner rule median")
	}
	if _, err := NewSketched("mda", 13, 2, SketchOptions{Incremental: true}); err == nil {
		t.Error("accepted incremental mda (no per-row score to bound)")
	}
	if _, err := NewSketched("krum", 13, 2, SketchOptions{SketchDim: -1}); err == nil {
		t.Error("accepted negative sketch dimension")
	}
	if _, err := NewSketched("krum", 13, 2, SketchOptions{Shortlist: -1}); err == nil {
		t.Error("accepted negative shortlist")
	}
	if _, err := NewSketched("krum", 7, 3, SketchOptions{}); err == nil {
		t.Error("accepted krum inner constraint violation n <= 2f+2")
	}
	sk, err := NewSketched("krum", 13, 2, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Name() != "sketched(krum)" {
		t.Errorf("Name() = %q", sk.Name())
	}
	inc, err := NewSketched("bulyan", 13, 2, SketchOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Name() != "incremental(bulyan)" {
		t.Errorf("Name() = %q", inc.Name())
	}
	if !SketchSupported("mda") || SketchSupported("median") {
		t.Error("SketchSupported wrong")
	}
	if !IncrementalSupported("bulyan") || IncrementalSupported("mda") {
		t.Error("IncrementalSupported wrong")
	}
}

// TestSketchedZeroAllocs extends the steady-state allocation gate to the
// sketched wrapper: after warm-up (pool, lazy sketcher, incremental state)
// no mode may allocate per call.
func TestSketchedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; alloc counts are meaningless")
	}
	vecmath.SetParallelism(1)
	defer vecmath.SetParallelism(0)
	const n, f, d = 13, 2, 128
	grads := intoTestGrads(d, 33)
	dst := make([]float64, d)
	builds := []struct {
		name string
		opt  SketchOptions
	}{
		{"jl", SketchOptions{}},
		{"incremental", SketchOptions{Incremental: true}},
	}
	for _, inner := range []string{"krum", "multikrum", "bulyan", "mda"} {
		for _, b := range builds {
			if b.opt.Incremental && !IncrementalSupported(inner) {
				continue
			}
			sk, err := NewSketched(inner, n, f, b.opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := sk.AggregateInto(dst, grads); err != nil {
					t.Fatalf("%s %s warm-up: %v", sk.Name(), b.name, err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := sk.AggregateInto(dst, grads); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s (%s) allocates %v objects per steady-state call", sk.Name(), b.name, allocs)
			}
		}
	}
}
