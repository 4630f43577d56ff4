package experiments

import (
	"context"
	"fmt"

	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/simulate"
)

// Theorem1Spec configures the empirical validation of Theorem 1: on the
// strongly convex mean-estimation objective Q(w) = ½E‖w − x‖², the training
// error after T steps is Θ(d·log(1/δ)/(T·b²·ε²)) with DP noise and O(1/T)
// without — i.e. the final suboptimality grows linearly in d only when DP
// noise is injected.
type Theorem1Spec struct {
	// Dims is the d grid to sweep (default {8, 16, 32, 64, 128}).
	Dims []int
	// Steps is T (default 200).
	Steps int
	// BatchSize is b (default 10).
	BatchSize int
	// Workers is n (default 5; no Byzantine workers — Theorem 1 bounds the
	// error even with a perfect GAR, so we use honest averaging).
	Workers int
	// Sigma is the data σ (default 1).
	Sigma float64
	// Epsilon/Delta form the per-step budget (defaults 0.2 / 1e-6).
	Epsilon float64
	Delta   float64
	// Gmax is the clipping bound (default 1; large enough not to bite on
	// this task, so sensitivity calibration rather than clipping drives σ).
	Gmax float64
	// Seeds is the number of repetitions per d (default 3).
	Seeds int
	// DatasetSize is the sample pool size (default 4000).
	DatasetSize int
}

func (s *Theorem1Spec) fillDefaults() {
	if len(s.Dims) == 0 {
		s.Dims = []int{8, 16, 32, 64, 128}
	}
	if s.Steps == 0 {
		s.Steps = 200
	}
	if s.BatchSize == 0 {
		s.BatchSize = 10
	}
	if s.Workers == 0 {
		s.Workers = 5
	}
	if s.Sigma == 0 {
		s.Sigma = 1
	}
	if s.Epsilon == 0 {
		s.Epsilon = PaperEpsilon
	}
	if s.Delta == 0 {
		s.Delta = PaperDelta
	}
	if s.Gmax == 0 {
		s.Gmax = 1
	}
	if s.Seeds == 0 {
		s.Seeds = 3
	}
	if s.DatasetSize == 0 {
		s.DatasetSize = 4000
	}
}

// Theorem1Point is one measurement of the d sweep.
type Theorem1Point struct {
	// Dim is the model/data dimension d.
	Dim int
	// ErrDP is the mean final suboptimality Q(w_T) − Q* with DP noise.
	ErrDP float64
	// ErrClear is the same without DP noise.
	ErrClear float64
}

// RunTheorem1 sweeps d and measures final suboptimality with and without DP
// noise. Theorem 1 predicts ErrDP growing linearly in d while ErrClear
// stays flat.
func RunTheorem1(ctx context.Context, spec Theorem1Spec) ([]Theorem1Point, error) {
	spec.fillDefaults()
	out := make([]Theorem1Point, 0, len(spec.Dims))
	for _, d := range spec.Dims {
		// Theorem 1's schedule is γ_t = 1/(λ(1−sinα)t); with averaging
		// (α = 0) and λ = 1 for this objective the d sweep uses the
		// harmonic-mean-equivalent constant small rate, clipped at G_max: a
		// fixed small step keeps the clear/DP comparison clean and the
		// d-scaling intact.
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{
			dim: d, batch: spec.BatchSize, steps: spec.Steps, clip: spec.Gmax, constantLR: 0.05,
		}, []bool{false, true})
		if err != nil {
			return nil, fmt.Errorf("experiments: theorem1 d=%d: %w", d, err)
		}
		out = append(out, Theorem1Point{Dim: d, ErrClear: errs[0], ErrDP: errs[1]})
	}
	return out, nil
}

// Table 1 / Propositions 1–3 across a model-size grid. (n, f) = (23, 5) so
// that all seven rules admit the pair (the paper's own n = 11, f = 5
// excludes the Krum family by its n > 2f + 2 constraint); the model sizes
// are the paper's model, two small networks, and ResNet-50.
const (
	table1Workers   = 23
	table1Byzantine = 5
	table1Batch     = 50
)

var table1Dims = []int{69, 10_000, 100_000, 25_600_000}

// Table1Result is the reproduced table: one row set per model size.
type Table1Result struct {
	Dim  int
	Rows []gar.Table1Row
}

// RunTable1 evaluates the Table 1 necessary conditions over the model-size
// grid at the paper's per-step budget.
func RunTable1() ([]Table1Result, error) {
	budget := dp.Budget{Epsilon: PaperEpsilon, Delta: PaperDelta}
	out := make([]Table1Result, 0, len(table1Dims))
	for _, d := range table1Dims {
		rows, err := gar.Table1(table1Workers, table1Byzantine, table1Batch, d, budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 d=%d: %w", d, err)
		}
		out = append(out, Table1Result{Dim: d, Rows: rows})
	}
	return out, nil
}

// Theorem1BatchPoint is one measurement of the batch-size sweep.
type Theorem1BatchPoint struct {
	// BatchSize is b.
	BatchSize int
	// ErrDP is the mean final suboptimality with DP noise.
	ErrDP float64
}

// RunTheorem1BatchSweep fixes d and T and sweeps b, validating the 1/b²
// factor of Theorem 1's rate: the DP noise scale s is proportional to 1/b,
// so the error term d·s² falls quadratically in the batch size.
func RunTheorem1BatchSweep(ctx context.Context, spec Theorem1Spec, batches []int) ([]Theorem1BatchPoint, error) {
	spec.fillDefaults()
	if len(batches) == 0 {
		batches = []int{5, 10, 20, 40}
	}
	d := spec.Dims[0]
	out := make([]Theorem1BatchPoint, 0, len(batches))
	for _, b := range batches {
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{dim: d, batch: b, steps: spec.Steps}, []bool{true})
		if err != nil {
			return nil, fmt.Errorf("experiments: theorem1 b=%d: %w", b, err)
		}
		out = append(out, Theorem1BatchPoint{BatchSize: b, ErrDP: errs[0]})
	}
	return out, nil
}

// Theorem1StepsPoint is one measurement of the step-count sweep.
type Theorem1StepsPoint struct {
	// Steps is T.
	Steps int
	// ErrDP is the mean final suboptimality with DP noise.
	ErrDP float64
}

// RunTheorem1StepsSweep fixes d and b and sweeps T with the 1/t schedule,
// validating the 1/T factor of Theorem 1's rate.
func RunTheorem1StepsSweep(ctx context.Context, spec Theorem1Spec, stepGrid []int) ([]Theorem1StepsPoint, error) {
	spec.fillDefaults()
	if len(stepGrid) == 0 {
		stepGrid = []int{50, 200, 800}
	}
	d := spec.Dims[0]
	out := make([]Theorem1StepsPoint, 0, len(stepGrid))
	for _, steps := range stepGrid {
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{dim: d, batch: spec.BatchSize, steps: steps}, []bool{true})
		if err != nil {
			return nil, fmt.Errorf("experiments: theorem1 T=%d: %w", steps, err)
		}
		out = append(out, Theorem1StepsPoint{Steps: steps, ErrDP: errs[0]})
	}
	return out, nil
}

// theorem1Shape is one mean-estimation configuration of the Theorem 1
// harness.
type theorem1Shape struct {
	dim, batch, steps int
	// clip is the per-sample clipping bound (0 = unclipped).
	clip float64
	// constantLR, when positive, is the fixed learning rate; zero selects
	// Theorem 1's γ_t = 1/t schedule (λ = 1, α = 0).
	constantLR float64
}

// theorem1Cell trains the shape once per (seed, DP mode) — honest averaging
// over spec.Workers, the (d, seed) dataset built once and shared by the
// modes — and returns, per mode, the final suboptimality averaged over the
// spec's seeds. The b and T sweeps run it unclipped under the 1/t schedule:
// the theorem's contraction argument assumes the unclipped strongly convex
// gradient, and on this task per-sample norms always exceed G_max = 1, so
// clipping would cap the pull and mask the 1/T and 1/b² factors. The noise is
// always calibrated to the (G_max, b, ε, δ) sensitivity, exactly as in the
// theorem's statement.
func theorem1Cell(ctx context.Context, spec Theorem1Spec, sh theorem1Shape, dpModes []bool) ([]float64, error) {
	mech, err := dp.NewGaussian(spec.Gmax, sh.batch, dp.Budget{Epsilon: spec.Epsilon, Delta: spec.Delta})
	if err != nil {
		return nil, err
	}
	m, err := model.NewMeanEstimation(sh.dim)
	if err != nil {
		return nil, err
	}
	errs := make([]float64, len(dpModes))
	for seed := 1; seed <= spec.Seeds; seed++ {
		ds, center, err := data.GaussianMean(data.GaussianMeanConfig{
			N: spec.DatasetSize, Dim: sh.dim, Sigma: spec.Sigma, Seed: uint64(seed),
		})
		if err != nil {
			return nil, err
		}
		for i, withDP := range dpModes {
			g, err := gar.NewAverage(spec.Workers)
			if err != nil {
				return nil, err
			}
			cfg := simulate.Config{
				Model:        m,
				Train:        ds,
				GAR:          g,
				Steps:        sh.steps,
				BatchSize:    sh.batch,
				LearningRate: sh.constantLR,
				ClipNorm:     sh.clip,
				Seed:         uint64(seed),
			}
			if sh.constantLR == 0 {
				cfg.LRSchedule = simulate.InverseTimeLR(1)
			}
			if withDP {
				cfg.Mechanism = mech
			}
			res, err := simulate.Run(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("dp=%v: %w", withDP, err)
			}
			errs[i] += m.Suboptimality(res.Params, center)
		}
	}
	for i := range errs {
		errs[i] /= float64(spec.Seeds)
	}
	return errs, nil
}
