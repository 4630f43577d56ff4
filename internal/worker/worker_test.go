package worker

import (
	"fmt"
	"testing"

	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// testConfig is a small logistic task at the paper's clip norm; mech names
// the DP mechanism ("" for none).
func testConfig(t *testing.T, mech string, momentum float64, postNoise bool) Config {
	t.Helper()
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{N: 400, Features: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticMSE(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: m, Train: ds, BatchSize: 20, ClipNorm: 0.01,
		Momentum: momentum, MomentumPostNoise: postNoise,
	}
	switch mech {
	case "gaussian":
		cfg.Mechanism, err = dp.NewGaussian(cfg.ClipNorm, cfg.BatchSize, dp.Budget{Epsilon: 0.2, Delta: 1e-6})
	case "laplace":
		cfg.Mechanism, err = dp.NewLaplaceForGradient(cfg.ClipNorm, cfg.BatchSize, m.Dim(), 0.2)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	p, err := New(cfg, randx.New(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Skip(k) must leave both streams exactly where k Steps leave them — the
// contract a rejoining cluster worker's bit-identity rests on — and, with
// no momentum state to have missed, make the next submission bit-identical.
func TestSkipLandsWhereStepDoes(t *testing.T) {
	const k = 9
	for _, postNoise := range []bool{false, true} {
		for _, mech := range []string{"", "gaussian", "laplace"} {
			for _, momentum := range []float64{0.9, 0} {
				t.Run(fmt.Sprintf("postNoise=%v/mech=%s/momentum=%v", postNoise, mech, momentum), func(t *testing.T) {
					cfg := testConfig(t, mech, momentum, postNoise)
					stepped, skipped := mustNew(t, cfg), mustNew(t, cfg)
					w := make([]float64, cfg.Model.Dim())
					for i := 0; i < k; i++ {
						// Move the parameters so the gradients differ per round.
						w[i%len(w)] += 0.1
						stepped.Step(w)
					}
					skipped.Skip(k)
					a, b := stepped.State(), skipped.State()
					if a.Batch != b.Batch {
						t.Errorf("batch stream: stepped %v, skipped %v", a.Batch, b.Batch)
					}
					if a.Noise != b.Noise {
						t.Errorf("noise stream: stepped %v, skipped %v", a.Noise, b.Noise)
					}
					if momentum > 0 {
						return
					}
					want, got := stepped.Step(w), skipped.Step(w)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("round %d submission differs at coordinate %d: %v != %v", k+1, j, got[j], want[j])
						}
					}
				})
			}
		}
	}
}
