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
	// Dims is the d grid to sweep (default {8, 16, 32, 64, 128}); the b and
	// T sweeps run at Dims[0].
	Dims []int
	// Steps is T (default 200); the T sweep has its own grid.
	Steps int
	// Seeds is the number of repetitions per point (default 3).
	Seeds int
	// DatasetSize is the sample pool size (default 4000).
	DatasetSize int
}

// The settings of the Theorem 1 harness that no Theorem1Spec field sets.
// It runs at the paper's per-step (ε, δ) on data of σ = 1.
const (
	// theorem1Workers is n; no worker is Byzantine: Theorem 1 bounds the
	// error even with a perfect GAR, so the harness averages honestly.
	theorem1Workers = 5
	// theorem1Batch is b outside the b sweep.
	theorem1Batch = 10
	// theorem1Gmax is the clipping bound, large enough not to bite on the d
	// sweep, so sensitivity calibration rather than clipping drives σ.
	theorem1Gmax = 1.0
)

// The grids of the b and T sweeps.
var (
	theorem1Batches = []int{5, 10, 20, 40}
	theorem1Steps   = []int{50, 200, 800}
)

func (s *Theorem1Spec) fillDefaults() {
	if len(s.Dims) == 0 {
		s.Dims = []int{8, 16, 32, 64, 128}
	}
	if s.Steps == 0 {
		s.Steps = 200
	}
	if s.Seeds == 0 {
		s.Seeds = 3
	}
	if s.DatasetSize == 0 {
		s.DatasetSize = 4000
	}
}

// errDPColumn is the final suboptimality with DP noise, in every Theorem 1
// table.
var errDPColumn = Column{"err-dp", 14, "%*.6g"}

// RunTheorem1 sweeps d and measures final suboptimality with and without DP
// noise. Theorem 1 predicts err-dp growing linearly in d while err-clear
// stays flat. Its table has one row per d: err-dp, err-clear and their
// ratio.
func RunTheorem1(ctx context.Context, spec Theorem1Spec) (Table, error) {
	spec.fillDefaults()
	t := Table{
		Title:   "Theorem 1: final suboptimality vs model dimension",
		Columns: []Column{{"dim", 8, "%-*d"}, errDPColumn, {"err-clear", 14, "%*.6g"}, {"ratio", 10, "%*.2f"}},
	}
	for _, d := range spec.Dims {
		// Theorem 1's schedule is γ_t = 1/(λ(1−sinα)t); with averaging
		// (α = 0) and λ = 1 for this objective the d sweep uses the
		// harmonic-mean-equivalent constant small rate, clipped at G_max: a
		// fixed small step keeps the clear/DP comparison clean and the
		// d-scaling intact.
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{
			dim: d, batch: theorem1Batch, steps: spec.Steps, clip: theorem1Gmax, constantLR: 0.05,
		}, []bool{false, true})
		if err != nil {
			return Table{}, fmt.Errorf("experiments: theorem1 d=%d: %w", d, err)
		}
		t.Rows = append(t.Rows, []any{d, errs[1], errs[0], errs[1] / errs[0]})
	}
	return t, nil
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

// Table1Columns are the columns of a set of Table 1 rows, one row per rule,
// whose cells Table1Cells returns; cmd/dpbyz-vnratio prints them too.
var Table1Columns = []Column{
	{"rule", 12, "%-*s"}, {"kind", 14, "%-*s"}, {"k_F", 12, "%*.5g"}, {"threshold", 16, "%*.6g"}, {"satisfied", 10, "%*v"},
}

// Table1Cells returns the cells of one Table 1 row in Table1Columns' order.
func Table1Cells(r gar.Table1Row) []any {
	return []any{r.Rule, r.Kind, r.KF, r.Threshold, r.Satisfied}
}

// RunTable1 evaluates the Table 1 necessary conditions over the model-size
// grid at the paper's per-step budget: one table per model size, titled
// "d = <d>" and indented under it, the first headed by the batch size and
// f/n they were computed at.
func RunTable1() ([]Table, error) {
	budget := dp.Budget{Epsilon: PaperEpsilon, Delta: PaperDelta}
	// An empty one-wide first column indents the rows by two spaces.
	cols := append([]Column{{"", 1, "%-*s"}}, Table1Columns...)
	out := make([]Table, 0, len(table1Dims))
	for _, d := range table1Dims {
		rows, err := gar.Table1(table1Workers, table1Byzantine, table1Batch, d, budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 d=%d: %w", d, err)
		}
		t := Table{Title: fmt.Sprintf("d = %d", d), Columns: cols}
		for _, r := range rows {
			t.Rows = append(t.Rows, append([]any{""}, Table1Cells(r)...))
		}
		out = append(out, t)
	}
	out[0].Title = fmt.Sprintf("Table 1 necessary conditions (b=%d, f/n=%.3f)\n%s",
		table1Batch, float64(table1Byzantine)/table1Workers, out[0].Title)
	return out, nil
}

// RunTheorem1BatchSweep fixes d and T and sweeps b, validating the 1/b²
// factor of Theorem 1's rate: the DP noise scale s is proportional to 1/b,
// so the error term d·s² falls quadratically in the batch size. Its table
// has one row per b: err-dp.
func RunTheorem1BatchSweep(ctx context.Context, spec Theorem1Spec) (Table, error) {
	spec.fillDefaults()
	t := Table{
		Title:   "Theorem 1: rate factors 1/b^2 and 1/T (unclipped harness)",
		Columns: []Column{{"batch", 8, "%-*d"}, errDPColumn},
	}
	for _, b := range theorem1Batches {
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{dim: spec.Dims[0], batch: b, steps: spec.Steps}, []bool{true})
		if err != nil {
			return Table{}, fmt.Errorf("experiments: theorem1 b=%d: %w", b, err)
		}
		t.Rows = append(t.Rows, []any{b, errs[0]})
	}
	return t, nil
}

// RunTheorem1StepsSweep fixes d and b and sweeps T with the 1/t schedule,
// validating the 1/T factor of Theorem 1's rate. Its table has one row per
// T: err-dp.
func RunTheorem1StepsSweep(ctx context.Context, spec Theorem1Spec) (Table, error) {
	spec.fillDefaults()
	t := Table{Columns: []Column{{"steps", 8, "%-*d"}, errDPColumn}}
	for _, steps := range theorem1Steps {
		errs, err := theorem1Cell(ctx, spec, theorem1Shape{dim: spec.Dims[0], batch: theorem1Batch, steps: steps}, []bool{true})
		if err != nil {
			return Table{}, fmt.Errorf("experiments: theorem1 T=%d: %w", steps, err)
		}
		t.Rows = append(t.Rows, []any{steps, errs[0]})
	}
	return t, nil
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
// over theorem1Workers, the (d, seed) dataset built once and shared by the
// modes — and returns, per mode, the final suboptimality averaged over the
// spec's seeds. The b and T sweeps run it unclipped under the 1/t schedule:
// the theorem's contraction argument assumes the unclipped strongly convex
// gradient, and on this task per-sample norms always exceed G_max = 1, so
// clipping would cap the pull and mask the 1/T and 1/b² factors. The noise is
// always calibrated to the (G_max, b, ε, δ) sensitivity, exactly as in the
// theorem's statement.
func theorem1Cell(ctx context.Context, spec Theorem1Spec, sh theorem1Shape, dpModes []bool) ([]float64, error) {
	mech, err := dp.NewGaussian(theorem1Gmax, sh.batch, dp.Budget{Epsilon: PaperEpsilon, Delta: PaperDelta})
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
			N: spec.DatasetSize, Dim: sh.dim, Sigma: 1, Seed: uint64(seed),
		})
		if err != nil {
			return nil, err
		}
		for i, withDP := range dpModes {
			g, err := gar.NewAverage(theorem1Workers)
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
