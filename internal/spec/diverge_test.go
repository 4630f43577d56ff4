package spec

import (
	"context"
	"errors"
	"testing"
	"time"

	"dpbyz/internal/round"
	"dpbyz/internal/simulate"
)

// divergingSpec is TestDivergenceDetected's run as a Spec: linear
// regression at a hopeless step size with heavy server momentum.
func divergingSpec() Spec {
	return Spec{
		Data:         DataSpec{N: 400, Features: 10},
		Model:        ModelSpec{Name: "linear"},
		GAR:          GARSpec{Name: "average", N: 5},
		Steps:        5000,
		BatchSize:    25,
		LearningRate: 1e6,
		Momentum:     0.99,
		Seed:         1,
	}
}

// A run whose parameters leave the finite range fails with the one
// divergence sentinel on both backends, so a caller can tell divergence
// from every other failure with errors.Is. simulate.ErrDiverged is that
// sentinel under its older name.
func TestDivergenceIsSentinelOnBothBackends(t *testing.T) {
	ctx := context.Background()
	for _, be := range []Backend{&LocalBackend{}, &ClusterBackend{}} {
		_, err := be.Run(ctx, divergingSpec(), WithRoundTimeout(10*time.Second))
		if !errors.Is(err, round.ErrDiverged) || !errors.Is(err, simulate.ErrDiverged) {
			t.Errorf("%s: error = %v, want ErrDiverged", be.Name(), err)
		}
	}
}
