// Heterogeneity: how non-IID data sharpens the paper's DP × Byzantine
// tension. The program sweeps the Dirichlet label-skew concentration β —
// from extreme heterogeneity (β = 0.1: each worker sees almost one class)
// to near-IID (β = 10) — for two aggregation rules, MDA and trimmed mean,
// under the ALIE attack with Gaussian DP noise on. As β shrinks, the honest
// gradients disagree more, the effective variance-to-norm ratio grows, and
// the (α, f)-resilience margin the rules rely on erodes: the same defences
// that coexist on IID data visibly degrade.
//
// Every condition is one serializable dpbyz.Spec with a "partition" field —
// the same JSON-able object the CLI, cluster binaries and experiment grids
// consume — so any cell of this sweep can be exported with Spec.JSON and
// replayed on a real cluster unchanged.
package main

import (
	"context"
	"flag"
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
	steps := flag.Int("steps", 300, "SGD steps per condition")
	attack := flag.String("attack", "alie", "attack name (try the adaptive ipm or drift)")
	flag.Parse()

	fmt.Printf("Dirichlet label-skew sweep: %s attack, Gaussian DP eps=0.2, 5/11 Byzantine\n\n", *attack)
	fmt.Printf("%-14s %-8s %12s %12s\n", "gar", "beta", "min-loss", "final-acc")
	for _, garName := range []string{"mda", "trimmedmean"} {
		for _, beta := range []float64{0.1, 0.3, 1, 10} {
			s := dpbyz.Spec{
				Data:           dpbyz.DataSpec{N: 4000, Features: 20},
				Partition:      &dpbyz.PartitionSpec{Name: "dirichlet", Beta: beta},
				GAR:            dpbyz.GARSpec{Name: garName, N: 11, F: 5},
				Attack:         &dpbyz.AttackSpec{Name: *attack},
				Mechanism:      &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
				Steps:          *steps,
				BatchSize:      50,
				LearningRate:   2,
				WorkerMomentum: 0.99,
				ClipNorm:       0.01,
				Seed:           1,
				AccuracyEvery:  50,
			}
			res, err := dpbyz.Run(context.Background(), s)
			if err != nil {
				return fmt.Errorf("%s beta=%v: %w", garName, beta, err)
			}
			minLoss, _ := res.History.MinLoss()
			fmt.Printf("%-14s %-8.3g %12.5f %12.4f\n",
				garName, beta, minLoss, res.History.FinalAccuracy())
		}
	}
	fmt.Println("\nSmaller beta = more label skew. Watch the final accuracy fall as the")
	fmt.Println("workers' data diverges: heterogeneity consumes the resilience margin")
	fmt.Println("that DP noise already thinned (the paper's Eq. 8 condition).")
	return nil
}
