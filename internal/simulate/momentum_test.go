package simulate

import (
	"context"
	"testing"

	"dpbyz/internal/attack"
)

func TestBothMomentaRejected(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Momentum = 0.9
	cfg.WorkerMomentum = 0.9
	if err := cfg.Validate(); err == nil {
		t.Error("both momenta accepted")
	}
	cfg.Momentum = 0
	cfg.WorkerMomentum = 1
	if err := cfg.Validate(); err == nil {
		t.Error("worker momentum = 1 accepted")
	}
}

// Worker-side momentum is the paper stack's defence amplifier: under ALIE
// with MDA it must outperform the no-momentum configuration.
func TestWorkerMomentumImprovesAttackedTraining(t *testing.T) {
	run := func(workerMu float64) float64 {
		cfg := baseConfig(t, mustGAR(t, "mda", 11, 5))
		cfg.Attack = attack.NewALIE()
		cfg.Momentum = 0
		cfg.WorkerMomentum = workerMu
		cfg.Steps = 200
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		minLoss, _ := res.History.MinLoss()
		return minLoss
	}
	without := run(0)
	with := run(0.99)
	if with >= without {
		t.Errorf("worker momentum did not help: %v (with) vs %v (without)", with, without)
	}
}
