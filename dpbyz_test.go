package dpbyz_test

import (
	"context"
	"testing"

	"dpbyz"
	"dpbyz/internal/simulate"
)

// TestPublicAPITrainPipeline builds every live object of a run through the
// facade's constructors and trains with them.
func TestPublicAPITrainPipeline(t *testing.T) {
	ds, err := dpbyz.SyntheticPhishing(dpbyz.SyntheticPhishingConfig{
		N: 800, Features: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(600, dpbyz.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpbyz.NewLogisticMSE(12)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dpbyz.NewGAR("mda", 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := dpbyz.NewAttack("alie")
	if err != nil {
		t.Fatal(err)
	}
	mech, err := dpbyz.NewGaussianMechanism(0.01, 20, dpbyz.Budget{Epsilon: 0.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(context.Background(), simulate.Config{
		Model:         m,
		Train:         train,
		Test:          test,
		GAR:           g,
		Attack:        atk,
		Mechanism:     mech,
		Steps:         50,
		BatchSize:     20,
		LearningRate:  2,
		Momentum:      0.9,
		ClipNorm:      0.01,
		Seed:          1,
		AccuracyEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 50 {
		t.Errorf("history length = %d", res.History.Len())
	}
}

func TestRegistriesExposed(t *testing.T) {
	if len(dpbyz.GARNames()) != 10 {
		t.Errorf("GARNames = %v", dpbyz.GARNames())
	}
	if len(dpbyz.ResilientGARNames()) != 9 {
		t.Errorf("ResilientGARNames = %v", dpbyz.ResilientGARNames())
	}
	if len(dpbyz.AttackNames()) != 8 {
		t.Errorf("AttackNames = %v", dpbyz.AttackNames())
	}
	if len(dpbyz.AdaptiveAttackNames()) != 2 {
		t.Errorf("AdaptiveAttackNames = %v", dpbyz.AdaptiveAttackNames())
	}
	if len(dpbyz.PartitionNames()) != 4 {
		t.Errorf("PartitionNames = %v", dpbyz.PartitionNames())
	}
}

func TestVNAnalysisExposed(t *testing.T) {
	rows, err := dpbyz.Table1(23, 5, 50, 69, dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("Table1 rows = %d", len(rows))
	}
	sigma, err := dpbyz.NoiseSigmaForGradient(0.01, 50, dpbyz.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if sigma <= 0 {
		t.Errorf("sigma = %v", sigma)
	}
}
