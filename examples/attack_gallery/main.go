// Attack gallery: every Byzantine-resilient GAR versus every attack, with
// and without DP noise, on a small task. The output matrix shows which
// rule survives which attack — and how DP noise erodes all of them.
//
// Each matrix cell is one serializable dpbyz.Spec differing only in its
// GAR/Attack/Mechanism references, run on the in-process backend.
package main

import (
	"context"
	"fmt"
	"log"

	"dpbyz"
)

const (
	workers   = 11
	byzantine = 2 // small enough that every rule (incl. Krum/Bulyan-style constraints) is in play
	steps     = 200
	batch     = 25
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	base := dpbyz.Spec{
		Data:           dpbyz.DataSpec{N: 3000, Features: 20, Seed: 7, TrainN: 2400},
		Steps:          steps,
		BatchSize:      batch,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       0.01,
		Seed:           1,
		AccuracyEvery:  steps - 1,
	}

	attacks := []string{"alie", "foe", "signflip", "randomnoise", "zero"}
	for _, withDP := range []bool{false, true} {
		header := "WITHOUT DP noise"
		if withDP {
			header = "WITH DP noise (eps=0.2, delta=1e-6)"
		}
		fmt.Printf("\n=== final accuracy, %s ===\n%-12s", header, "gar\\attack")
		for _, a := range attacks {
			fmt.Printf(" %12s", a)
		}
		fmt.Println()

		for _, garName := range dpbyz.ResilientGARNames() {
			if _, err := dpbyz.NewGAR(garName, workers, byzantine); err != nil {
				// Rule's (n, f) constraint not met; skip.
				continue
			}
			fmt.Printf("%-12s", garName)
			for _, attackName := range attacks {
				s := base
				s.GAR = dpbyz.GARSpec{Name: garName, N: workers, F: byzantine}
				s.Attack = &dpbyz.AttackSpec{Name: attackName}
				if withDP {
					s.Mechanism = &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6}
				}
				res, err := dpbyz.Run(context.Background(), s)
				if err != nil {
					return err
				}
				fmt.Printf(" %12.4f", res.History.FinalAccuracy())
			}
			fmt.Println()
		}
	}
	return nil
}
