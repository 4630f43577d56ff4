// Privacy accounting walkthrough: how the paper's per-step Gaussian noise
// is calibrated (Eq. 6), what a full training run spends under the run
// ledger (Spec.Privacy: Rényi-DP composition, beside basic composition),
// and what the resulting privacy/utility trade-off looks like on the
// phishing-like task.
package main

import (
	"context"
	"fmt"
	"log"

	"dpbyz"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		gmax  = 0.01
		batch = 50
		steps = 300
		delta = 1e-6
	)

	fmt.Println("Per-step Gaussian noise scale s = 2*Gmax*sqrt(2*ln(1.25/delta))/(b*eps):")
	for _, eps := range []float64{0.1, 0.2, 0.5, 0.9} {
		s, err := dpbyz.NoiseSigmaForGradient(gmax, batch, dpbyz.Budget{Epsilon: eps, Delta: delta})
		if err != nil {
			return err
		}
		fmt.Printf("  eps=%.1f  ->  sigma=%.6g\n", eps, s)
	}

	const perStepEps = 0.2
	fmt.Printf("\nSpend of T releases at per-step (%v, %v), as a run reports it:\n", perStepEps, delta)
	theory := dpbyz.Spec{
		BatchSize:         batch,
		WorkerMomentum:    0.99,
		MomentumPostNoise: true,
		ClipNorm:          gmax,
		Mechanism:         &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: perStepEps, Delta: delta},
	}
	// The paper's ordering clips the momentum state, not per-sample
	// gradients, so its releases are not bounded by the calibrated
	// sensitivity and the ledger reports no number for it.
	paper := theory
	paper.MomentumPostNoise = false
	fmt.Printf("  %-6s %10s %26s %16s\n", "T", "basic eps", "theory-ordering eps (rdp)", "paper ordering")
	for _, t := range []int{100, 1000, 3000} {
		fmt.Printf("  %-6d %10.4g %26.4g %16s\n",
			t, float64(t)*perStepEps, theory.Privacy(t).Epsilon, paper.Privacy(t).Method)
	}

	fmt.Println("\nPrivacy/utility trade-off (honest workers, averaging, no attack):")
	base := dpbyz.Spec{
		Data:           dpbyz.DataSpec{N: 4000, Features: 30, Seed: 3, TrainN: 3200},
		GAR:            dpbyz.GARSpec{Name: "average", N: 11},
		Steps:          steps,
		BatchSize:      batch,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       gmax,
		Seed:           1,
		AccuracyEvery:  50,
	}
	fmt.Printf("  %-8s %12s %12s %14s\n", "eps", "sigma", "min-loss", "final-acc")
	for _, eps := range []float64{0, 0.1, 0.2, 0.5, 0.9} {
		s := base
		var sigma float64
		var err error
		if eps > 0 {
			s.Mechanism = &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: eps, Delta: delta}
			// The spec stores the budget; the calibrated noise scale it
			// implies is Eq. 6, reproduced here for the table.
			sigma, err = dpbyz.NoiseSigmaForGradient(gmax, batch, dpbyz.Budget{Epsilon: eps, Delta: delta})
			if err != nil {
				return err
			}
		}
		res, err := dpbyz.Run(context.Background(), s)
		if err != nil {
			return err
		}
		minLoss, _ := res.History.MinLoss()
		fmt.Printf("  %-8.2g %12.6g %12.5f %14.4f\n",
			eps, sigma, minLoss, res.History.FinalAccuracy())
	}
	fmt.Println("\nSmaller eps (more privacy) -> larger sigma -> worse utility:")
	fmt.Println("the graceful degradation the paper reports for convex tasks.")
	return nil
}
