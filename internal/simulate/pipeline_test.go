package simulate

import (
	"context"
	"testing"

	"dpbyz/internal/dp"
	"dpbyz/internal/vecmath"
)

// The paper pipeline (momentum → clip → noise) must keep the unattacked DP
// run convergent at the paper's aggressive hyperparameters, while the
// theory pipeline (per-sample clip → noise → momentum) amplifies the noise
// and performs visibly worse. This is the reproduction finding documented
// on worker.Config.MomentumPostNoise.
func TestMomentumOrderingChangesDPOutcome(t *testing.T) {
	run := func(postNoise bool) float64 {
		cfg := baseConfig(t, mustGAR(t, "average", 11, 0))
		cfg.Momentum = 0
		cfg.WorkerMomentum = 0.99
		cfg.MomentumPostNoise = postNoise
		cfg.Steps = 300
		mech, err := dp.NewGaussian(cfg.ClipNorm, cfg.BatchSize, dp.Budget{Epsilon: 0.2, Delta: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mechanism = mech
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		minLoss, _ := res.History.MinLoss()
		return minLoss
	}
	paperPipeline := run(false)
	theoryPipeline := run(true)
	if paperPipeline >= theoryPipeline {
		t.Errorf("paper pipeline min loss %v not below theory pipeline %v",
			paperPipeline, theoryPipeline)
	}
	// The paper pipeline must actually converge (initial loss is 0.25).
	if paperPipeline > 0.12 {
		t.Errorf("paper pipeline failed to converge: min loss %v", paperPipeline)
	}
}

// Without DP and with a generous clip bound, the two orderings coincide
// mathematically step-by-step only when momentum is off; with momentum on,
// they still both converge on an easy task.
func TestOrderingsEquivalentWithoutNoiseOrMomentum(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Momentum = 0
	cfg.WorkerMomentum = 0
	cfg.Steps = 30
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MomentumPostNoise = true
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(a.Params, b.Params, 0) {
		t.Error("orderings diverge with momentum disabled")
	}
}

// The flag must not change anything when momentum is zero even with DP on.
func TestPostNoiseFlagInertWithoutMomentum(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Momentum = 0
	cfg.Steps = 20
	mech, err := dp.NewGaussian(cfg.ClipNorm, cfg.BatchSize, dp.Budget{Epsilon: 0.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = mech
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MomentumPostNoise = true
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(a.Params, b.Params, 0) {
		t.Error("flag changed a momentum-free run")
	}
}
