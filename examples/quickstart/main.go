// Quickstart: train the paper's logistic model in the parameter-server
// model with 11 workers, 5 of them Byzantine running the "A Little Is
// Enough" attack, aggregated with MDA — first without, then with DP noise.
// The run reproduces in miniature the paper's headline observation: each
// defence works alone, but combining them hurts.
//
// Each condition is one serializable dpbyz.Spec — the same object a JSON
// file, the cluster binaries and the experiment grids consume — executed
// here on the in-process LocalBackend.
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
	flag.Parse()

	// The offline stand-in for the paper's phishing dataset: 11 055 points,
	// 68 features, split 8 400 / 2 655 like §5.1 — the Spec's Data defaults.
	base := dpbyz.Spec{
		Steps:          *steps,
		BatchSize:      50,
		LearningRate:   2,
		WorkerMomentum: 0.99, // the paper applies momentum at the workers
		ClipNorm:       0.01,
		Seed:           1,
		AccuracyEvery:  50,
	}

	for _, setting := range []struct {
		label  string
		attack bool
		dp     bool
	}{
		{label: "honest, clear", attack: false, dp: false},
		{label: "ALIE attack, clear", attack: true, dp: false},
		{label: "honest, DP eps=0.2", attack: false, dp: true},
		{label: "ALIE attack + DP eps=0.2", attack: true, dp: true},
	} {
		s := base
		if setting.attack {
			s.GAR = dpbyz.GARSpec{Name: "mda", N: 11, F: 5}
			s.Attack = &dpbyz.AttackSpec{Name: "alie"}
		} else {
			s.GAR = dpbyz.GARSpec{Name: "average", N: 11}
		}
		if setting.dp {
			s.Mechanism = &dpbyz.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6}
		}
		res, err := dpbyz.Run(context.Background(), s)
		if err != nil {
			return err
		}
		minLoss, atStep := res.History.MinLoss()
		fmt.Printf("%-26s min-loss=%.5f (step %d)  final-acc=%.4f\n",
			setting.label, minLoss, atStep, res.History.FinalAccuracy())
	}
	return nil
}
