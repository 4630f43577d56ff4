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

// TestSketchedConstructorValidation covers the wrapper's error paths and
// naming.
func TestSketchedConstructorValidation(t *testing.T) {
	if _, err := NewSketched("median", 13, 2, SketchOptions{}); err == nil {
		t.Error("accepted unsupported inner rule median")
	}
	if _, err := NewSketched("krum", 13, 2, SketchOptions{SketchDim: -1}); err == nil {
		t.Error("accepted negative sketch dimension")
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
	if !SketchSupported("mda") || SketchSupported("median") {
		t.Error("SketchSupported wrong")
	}
}

// TestSketchedZeroAllocs extends the steady-state allocation gate to the
// sketched wrapper: after warm-up (pool, lazy sketcher) no inner rule's path
// may allocate per call.
func TestSketchedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; alloc counts are meaningless")
	}
	vecmath.SetParallelism(1)
	defer vecmath.SetParallelism(0)
	const n, f, d = 13, 2, 128
	grads := intoTestGrads(d, 33)
	dst := make([]float64, d)
	for _, inner := range []string{"krum", "multikrum", "bulyan", "mda"} {
		sk, err := NewSketched(inner, n, f, SketchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := sk.AggregateInto(dst, grads); err != nil {
				t.Fatalf("%s warm-up: %v", sk.Name(), err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := sk.AggregateInto(dst, grads); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v objects per steady-state call", sk.Name(), allocs)
		}
	}
}
