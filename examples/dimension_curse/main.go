// Dimension curse: Theorem 1 live. On the strongly convex mean-estimation
// objective Q(w) = ½E‖w − x‖², the final training error after T steps is
// flat in the model dimension d without DP noise but grows with d once
// per-step (ε, δ)-DP noise is injected — the Θ(d·log(1/δ)/(T·b²·ε²)) rate
// that makes DP + Byzantine resilience impractical for large models.
package main

import (
	"context"
	"fmt"
	"log"

	"dpbyz"
)

const (
	steps   = 200
	batch   = 10
	workers = 5
	gmax    = 1.0
	sigma   = 1.0
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("%-8s %14s %14s %10s\n", "dim", "err with DP", "err clear", "ratio")
	for _, d := range []int{8, 16, 32, 64, 128} {
		errDP, err := finalError(d, true)
		if err != nil {
			return err
		}
		errClear, err := finalError(d, false)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %14.4g %14.4g %10.1f\n", d, errDP, errClear, errDP/errClear)
	}
	fmt.Println("\nWithout DP the error is flat in d; with DP it grows with d —")
	fmt.Println("Theorem 1's curse of dimensionality.")
	return nil
}

func finalError(dim int, withDP bool) (float64, error) {
	// Theorem 1's data distribution is not a named Spec source (its random
	// center is needed below to measure suboptimality), so the dataset is
	// built here and injected into the run with WithDatasets.
	ds, center, err := dpbyz.GaussianMean(dpbyz.GaussianMeanConfig{
		N: 4000, Dim: dim, Sigma: sigma, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	m, err := dpbyz.NewMeanEstimation(dim)
	if err != nil {
		return 0, err
	}
	s := dpbyz.Spec{
		Model:        dpbyz.ModelSpec{Name: "mean-estimation"},
		GAR:          dpbyz.GARSpec{Name: "average", N: workers},
		Steps:        steps,
		BatchSize:    batch,
		LearningRate: 0.05,
		ClipNorm:     gmax,
		Seed:         1,
	}
	if withDP {
		s.Mechanism = &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6}
	}
	res, err := dpbyz.Run(context.Background(), s,
		dpbyz.WithDatasets(ds, nil))
	if err != nil {
		return 0, err
	}
	return m.Suboptimality(res.Params, center), nil
}
