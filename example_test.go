package dpbyz_test

import (
	"context"
	"fmt"
	"log"

	"dpbyz"
)

// ExampleRun runs a miniature version of the paper's Fig. 2 "ALIE + DP"
// cell: 7 workers, 2 Byzantine, MDA aggregation, Gaussian DP noise — all
// referenced by name in one serializable Spec, executed on the in-process
// backend.
func ExampleRun() {
	s := dpbyz.Spec{
		Data:           dpbyz.DataSpec{N: 600, Features: 10, TrainN: 450},
		GAR:            dpbyz.GARSpec{Name: "mda", N: 7, F: 2},
		Attack:         &dpbyz.AttackSpec{Name: "alie"},
		Mechanism:      &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:          60,
		BatchSize:      20,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       0.01,
		Seed:           1,
	}
	res, err := dpbyz.Run(context.Background(), s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("steps recorded:", res.History.Len())
	// Output: steps recorded: 60
}

// ExampleSpec_json shows the serialized form of a Spec: the same JSON that
// drives cmd/dpbyz-train, cmd/dpbyz-server/-worker and the experiment
// grids, with a version tag and strict unknown-field rejection on decode.
func ExampleSpec_json() {
	s := dpbyz.Spec{
		GAR:          dpbyz.GARSpec{Name: "trimmedmean", N: 5, F: 1},
		Steps:        10,
		BatchSize:    20,
		LearningRate: 2,
		Seed:         1,
	}
	b, err := s.JSON()
	if err != nil {
		log.Fatal(err)
	}
	round, err := dpbyz.ParseSpec(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round-trip gar:", round.GAR.Name)
	_, err = dpbyz.ParseSpec([]byte(`{"version": 1, "gar": {"name": "mda", "n": 5, "f": 1}, "stepz": 10}`))
	fmt.Println("unknown field rejected:", err != nil)
	// Output:
	// round-trip gar: trimmedmean
	// unknown field rejected: true
}

// ExampleTable1 evaluates the paper's Table-1 necessary conditions at
// ResNet-50 scale, where no rule can combine DP with Byzantine resilience.
func ExampleTable1() {
	rows, err := dpbyz.Table1(23, 5, 128, 25_600_000, dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	satisfied := 0
	for _, r := range rows {
		if r.Satisfied {
			satisfied++
		}
	}
	fmt.Printf("%d of %d rules satisfy their condition\n", satisfied, len(rows))
	// Output: 0 of 7 rules satisfy their condition
}

// ExampleNoiseSigmaForGradient reproduces the paper's per-step noise scale
// for the Fig. 2 configuration.
func ExampleNoiseSigmaForGradient() {
	sigma, err := dpbyz.NoiseSigmaForGradient(0.01, 50, dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma = %.4f\n", sigma)
	// Output: sigma = 0.0106
}

// ExampleSpec_Privacy shows the privacy spend a full 1000-step run reports
// at the paper's per-step budget: Rényi-DP composition for the
// theory-faithful ordering, and no number for the paper's ordering, whose
// releases the calibrated sensitivity does not bound.
func ExampleSpec_Privacy() {
	s := dpbyz.Spec{
		Mechanism:         &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		BatchSize:         50,
		WorkerMomentum:    0.99,
		MomentumPostNoise: true,
		ClipNorm:          0.01,
	}
	p := s.Privacy(1000)
	fmt.Printf("%s: eps = %.2f, delta = %.0e\n", p.Method, p.Epsilon, p.Delta)
	s.MomentumPostNoise = false
	fmt.Println(s.Privacy(1000).Method)
	// Output:
	// rdp: eps = 7.02, delta = 1e-06
	// not covered
}
