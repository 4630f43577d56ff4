// Privacy accounting walkthrough: how the paper's per-step Gaussian noise
// is calibrated (Eq. 6), how the privacy budget composes over a full
// training run (basic vs advanced composition), and what the resulting
// privacy/utility trade-off looks like on the phishing-like task.
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

	fmt.Printf("\nComposition over %d steps at per-step (0.2, 1e-6):\n", steps)
	perStep := dpbyz.Budget{Epsilon: 0.2, Delta: delta}
	basic, err := dpbyz.BasicComposition(perStep, steps)
	if err != nil {
		return err
	}
	adv, err := dpbyz.AdvancedComposition(perStep, steps, 1e-6)
	if err != nil {
		return err
	}
	fmt.Printf("  basic:    eps=%.4g delta=%.4g\n", basic.Epsilon, basic.Delta)
	fmt.Printf("  advanced: eps=%.4g delta=%.4g\n", adv.Epsilon, adv.Delta)

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
		sigma := 0.0
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
