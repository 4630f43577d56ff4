package simulate

import (
	"context"
	"errors"
	"math"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/vecmath"
)

// smallTask returns a quick 10-feature classification task and its model.
func smallTask(t *testing.T) (*data.Dataset, *data.Dataset, model.Model) {
	t.Helper()
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: 1200, Features: 10, NoiseRate: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic split (the generator is already shuffled).
	train, err := ds.Subset(seqInts(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	test, err := ds.Subset(seqInts(1000, 1200))
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticMSE(10)
	if err != nil {
		t.Fatal(err)
	}
	return train, test, m
}

func seqInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func baseConfig(t *testing.T, g gar.GAR) Config {
	t.Helper()
	train, test, m := smallTask(t)
	return Config{
		Model:         m,
		Train:         train,
		Test:          test,
		GAR:           g,
		Steps:         120,
		BatchSize:     25,
		LearningRate:  2,
		Momentum:      0.9,
		ClipNorm:      0.01,
		Seed:          1,
		AccuracyEvery: 40,
	}
}

func mustGAR(t *testing.T, name string, n, f int) gar.GAR {
	t.Helper()
	g, err := gar.New(name, n, f)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidate(t *testing.T) {
	valid := baseConfig(t, mustGAR(t, "average", 5, 0))
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil model", mutate: func(c *Config) { c.Model = nil }},
		{name: "nil dataset", mutate: func(c *Config) { c.Train = nil }},
		{name: "nil gar", mutate: func(c *Config) { c.GAR = nil }},
		{name: "zero steps", mutate: func(c *Config) { c.Steps = 0 }},
		{name: "zero batch", mutate: func(c *Config) { c.BatchSize = 0 }},
		{name: "zero lr", mutate: func(c *Config) { c.LearningRate = 0 }},
		{name: "momentum one", mutate: func(c *Config) { c.Momentum = 1 }},
		{name: "negative clip", mutate: func(c *Config) { c.ClipNorm = -1 }},
		{name: "bad init dim", mutate: func(c *Config) { c.InitParams = []float64{1} }},
		{name: "attack with f=0", mutate: func(c *Config) { c.Attack = attack.NewALIE() }},
		{name: "feature mismatch", mutate: func(c *Config) {
			m, err := model.NewLogisticMSE(3)
			if err != nil {
				t.Fatal(err)
			}
			c.Model = m
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestHonestTrainingConverges(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != cfg.Steps {
		t.Fatalf("history length = %d", res.History.Len())
	}
	first := res.History.Record(0).Loss
	minLoss, _ := res.History.MinLoss()
	if minLoss >= first {
		t.Errorf("loss did not improve: first %v, min %v", first, minLoss)
	}
	if acc := res.History.FinalAccuracy(); acc < 0.8 {
		t.Errorf("final accuracy = %v, want >= 0.8", acc)
	}
	if !vecmath.AllFinite(res.Params) {
		t.Error("final params not finite")
	}
}

// Two runs of one seed are the same bits. Fan-out widths are covered for
// every site at once by spec's TestFanOutWidthInvariant.
func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "mda", 7, 3))
	cfg.Attack = attack.NewALIE()
	mech, err := dp.NewGaussian(cfg.ClipNorm, cfg.BatchSize, dp.Budget{Epsilon: 0.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = mech
	cfg.Steps = 40

	run := func() *Result {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !vecmath.ApproxEqual(a.Params, b.Params, 0) {
		t.Error("two runs with the same seed differ")
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Steps = 20
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.ApproxEqual(a.Params, b.Params, 0) {
		t.Error("different seeds produced identical parameters")
	}
}

func TestMDAResistsAttackAverageDoesNot(t *testing.T) {
	const n, f = 11, 5
	// Attacked averaging: ALIE drags the model; attacked MDA stays close to
	// the honest baseline. Compare final losses on the same task.
	runWith := func(g gar.GAR, atk attack.Attack) float64 {
		cfg := baseConfig(t, g)
		cfg.Attack = atk
		cfg.Steps = 150
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.History.FinalLoss()
	}
	honest := runWith(mustGAR(t, "average", n, 0), nil)
	attackedMDA := runWith(mustGAR(t, "mda", n, f), attack.NewSignFlip())
	if attackedMDA > honest+0.1 {
		t.Errorf("MDA under attack lost %v vs honest %v", attackedMDA, honest)
	}
}

func TestDPNoiseDegradesSmallBatches(t *testing.T) {
	// Paper Fig. 3: with a small batch, DP noise alone visibly hampers
	// training relative to the noiseless run.
	cfg := baseConfig(t, mustGAR(t, "average", 11, 0))
	cfg.BatchSize = 5
	cfg.Steps = 150
	clean, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := dp.NewGaussian(cfg.ClipNorm, cfg.BatchSize, dp.Budget{Epsilon: 0.2, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = mech
	noisy, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanMin, _ := clean.History.MinLoss()
	noisyMin, _ := noisy.History.MinLoss()
	if noisyMin <= cleanMin {
		t.Errorf("DP run min loss %v not worse than clean %v", noisyMin, cleanMin)
	}
}

func TestContextCancellation(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Steps = 100000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

func TestDivergenceDetected(t *testing.T) {
	train, test, _ := smallTask(t)
	m, err := model.NewLinearRegression(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:        m,
		Train:        train,
		Test:         test,
		GAR:          mustGAR(t, "average", 5, 0),
		Steps:        5000,
		BatchSize:    25,
		LearningRate: 1e6, // hopelessly unstable
		Momentum:     0.99,
		Seed:         1,
	}
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrDiverged) {
		t.Errorf("error = %v, want ErrDiverged", err)
	}
}

func TestAccuracyCadence(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Steps = 90
	cfg.AccuracyEvery = 30
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, r := range res.History.Records() {
		if !math.IsNaN(r.Accuracy) {
			measured++
			if r.Step%30 != 0 && r.Step != cfg.Steps-1 {
				t.Errorf("accuracy measured at unexpected step %d", r.Step)
			}
		}
	}
	// Steps 0, 30, 60 plus the final step 89.
	if measured != 4 {
		t.Errorf("accuracy measured %d times, want 4", measured)
	}
}

func TestVNRatioRecorded(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "mda", 7, 2))
	cfg.Attack = attack.NewALIE()
	cfg.Steps = 20
	cfg.VNRatioEvery = 10
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range res.History.Records() {
		if !math.IsNaN(r.VNRatio) {
			count++
			if r.VNRatio < 0 {
				t.Errorf("negative VN ratio %v", r.VNRatio)
			}
		}
	}
	if count != 2 {
		t.Errorf("VN ratio recorded %d times, want 2", count)
	}
}

func TestInitParamsRespected(t *testing.T) {
	cfg := baseConfig(t, mustGAR(t, "average", 5, 0))
	cfg.Steps = 1
	cfg.LearningRate = 1e-12 // effectively freeze training
	init := make([]float64, cfg.Model.Dim())
	for i := range init {
		init[i] = 0.25
	}
	cfg.InitParams = init
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(res.Params, init, 1e-6) {
		t.Errorf("params %v drifted from init", res.Params[:3])
	}
	// The engine must not alias the caller's slice.
	if &res.Params[0] == &init[0] {
		t.Error("result aliases InitParams")
	}
}

func TestMeanEstimationTask(t *testing.T) {
	ds, center, err := data.GaussianMean(data.GaussianMeanConfig{N: 5000, Dim: 8, Sigma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewMeanEstimation(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:        m,
		Train:        ds,
		GAR:          mustGAR(t, "average", 5, 0),
		Steps:        300,
		BatchSize:    20,
		LearningRate: 0.1,
		Momentum:     0,
		Seed:         4,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sub := m.Suboptimality(res.Params, center); sub > 0.01 {
		t.Errorf("mean estimation suboptimality = %v", sub)
	}
}
