// Package experiments declaratively encodes every table and figure of the
// paper's evaluation (§5 and the appendix) and provides runners that
// regenerate them: Figures 2–4 (loss/accuracy under the DP × attack grid),
// Table 1 / Propositions 1–3 (VN-condition thresholds), Theorem 1 (the
// Θ(d·log(1/δ)/(T·b²·ε²)) error rate) and the full version's ε sweep.
//
// Each runner accepts a Scale so the same experiment can run at paper scale
// from cmd/dpbyz-experiments or at smoke-test scale from the test suite and
// benchmarks.
//
// # One grid, one scheduler
//
// Every Spec-driven driver — RunFigure, RunEpsilonSweep,
// RunHeterogeneitySweep, RunStalenessSweep, RunCrossover and RunSpecCell —
// is the same thing: a list of conditions, each repeated over seeds 1..k,
// every (condition, seed) cell one runspec.Spec run on the local backend. A
// driver fills in its defaults, lists its conditions, says how to build the
// Spec of (condition, seed) and maps the aggregated cells to its point type;
// the unexported grid type does the rest, on Pool (Sched.Workers goroutines,
// default GOMAXPROCS). Progress labels are "<condition label> seed k".
// Theorem 1 and the empirical VN ratio are not Spec-driven — the first
// needs an inverse-time learning-rate schedule and a Gaussian-mean data
// source no Spec can name, the second samples raw gradients without training
// — and keep their own loops.
//
// # Scheduler determinism contract
//
// The grid is embarrassingly parallel: every cell derives all of its
// randomness from its own (seed-keyed) randx streams, the per-seed synthetic
// datasets are built once up front and shared read-only, and per-cell
// results are written into pre-indexed slots and aggregated in the fixed
// serial order. Consequently the returned results are BIT-IDENTICAL for
// every Workers setting, including Workers = 1 (the serial order);
// parallelism trades wall-clock for cores and nothing else. Only the
// Progress callback observes scheduling (cells complete in a
// nondeterministic order).
//
// Note that individual cell trajectories are a pure function of the seed
// within one build of this module, but are not bit-stable across the randx
// Gaussian sampler change (see the randx package comment).
//
//dpbyz:deterministic
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dpbyz/internal/data"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	runspec "dpbyz/internal/spec"
)

// Paper hyperparameters (§5.1).
const (
	PaperWorkers       = 11
	PaperByzantine     = 5
	PaperSteps         = 1000
	PaperLearningRate  = 2.0
	PaperMomentum      = 0.99
	PaperClipNorm      = 1e-2
	PaperEpsilon       = 0.2
	PaperDelta         = 1e-6
	PaperSeeds         = 5
	PaperAccuracyEvery = 50
)

// Scale shrinks an experiment for tests and benches. The zero value means
// "paper scale".
type Scale struct {
	// Steps overrides the step count when positive.
	Steps int
	// Seeds overrides the number of repetitions when positive.
	Seeds int
	// DatasetSize overrides the synthetic dataset size when positive.
	DatasetSize int
	// Features overrides the feature count when positive.
	Features int
}

// ScaleSmall returns the reduced scale used by -smoke runs, the benchmark
// suite and CI: the full condition grid in a few seconds instead of hours.
func ScaleSmall() Scale {
	return Scale{Steps: 100, Seeds: 2, DatasetSize: 2000, Features: 20}
}

func (s Scale) steps() int {
	if s.Steps > 0 {
		return s.Steps
	}
	return PaperSteps
}

func (s Scale) seeds() int {
	if s.Seeds > 0 {
		return s.Seeds
	}
	return PaperSeeds
}

func (s Scale) datasetSize() int {
	if s.DatasetSize > 0 {
		return s.DatasetSize
	}
	return data.PhishingSize
}

func (s Scale) features() int {
	if s.Features > 0 {
		return s.Features
	}
	return data.PhishingFeatures
}

// Sched configures the parallel deterministic cell scheduler (see the
// package comment for the determinism contract).
type Sched struct {
	// Workers caps how many (condition, seed) cells run concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial order. The results
	// are bit-identical at every setting.
	Workers int
	// Progress, when non-nil, is invoked after each cell completes, with
	// the number of completed cells, the grid total and the finished cell's
	// label. Invocations are serialized but arrive in completion order,
	// which depends on scheduling.
	Progress func(done, total int, label string)
}

// Condition is one cell of the Figs 2–4 grid.
type Condition struct {
	// Label is a human-readable identifier such as "alie+dp".
	Label string
	// AttackName is "" for the unattacked baseline, else an attack registry
	// name.
	AttackName string
	// DP enables Gaussian noise injection at the figure's budget.
	DP bool
}

// Grid returns the six conditions of each figure: {none, alie, foe} ×
// {no DP, DP}.
func Grid() []Condition {
	var out []Condition
	for _, atk := range []string{"", "alie", "foe"} {
		for _, dpOn := range []bool{false, true} {
			label := "none"
			if atk != "" {
				label = atk
			}
			if dpOn {
				label += "+dp"
			} else {
				label += "+clear"
			}
			out = append(out, Condition{Label: label, AttackName: atk, DP: dpOn})
		}
	}
	return out
}

// FigureSpec describes one of Figs 2–4 (or the non-convex MLP variant).
type FigureSpec struct {
	// ID is "fig2", "fig3", "fig4" or "figmlp".
	ID string
	// BatchSize is the b that distinguishes the three figures.
	BatchSize int
	// Epsilon is the per-step privacy parameter (paper: 0.2).
	Epsilon float64
	// MLPHidden, when positive, replaces the paper's logistic model with a
	// one-hidden-layer MLP of that width — the non-convex regime of §3,
	// where the VN-ratio analysis (but not Theorem 1) still applies.
	MLPHidden int
	// Scale shrinks the run for tests.
	Scale Scale
	// Sched configures the cell scheduler; the zero value fans across
	// GOMAXPROCS workers with no progress reporting.
	Sched Sched
}

// Figure2 returns the paper's Fig. 2 spec (b = 50).
func Figure2(s Scale) FigureSpec {
	return FigureSpec{ID: "fig2", BatchSize: 50, Epsilon: PaperEpsilon, Scale: s}
}

// Figure3 returns the paper's Fig. 3 spec (b = 10).
func Figure3(s Scale) FigureSpec {
	return FigureSpec{ID: "fig3", BatchSize: 10, Epsilon: PaperEpsilon, Scale: s}
}

// Figure4 returns the paper's Fig. 4 spec (b = 500).
func Figure4(s Scale) FigureSpec {
	return FigureSpec{ID: "fig4", BatchSize: 500, Epsilon: PaperEpsilon, Scale: s}
}

// FigureMLP returns the non-convex extension of the Fig. 2 grid: the same
// conditions on a one-hidden-layer MLP (d grows to hidden·(features+2)+1),
// exercising the general setting of the paper's §3.
func FigureMLP(s Scale) FigureSpec {
	return FigureSpec{ID: "figmlp", BatchSize: 50, Epsilon: PaperEpsilon, MLPHidden: 16, Scale: s}
}

// CellResult aggregates one condition's runs.
type CellResult struct {
	Condition Condition
	// Loss and Accuracy are mean ± std across seeds, per step.
	Loss     *metrics.SeriesStats
	Accuracy *metrics.SeriesStats
	// MinLossMean is the mean over seeds of each run's minimum loss.
	MinLossMean float64
	// StepsToMinMean is the mean step index at which the minimum occurred.
	StepsToMinMean float64
	// FinalAccMean/Std summarize the last measured accuracy.
	FinalAccMean float64
	FinalAccStd  float64
}

// FigureResult is a reproduced figure.
type FigureResult struct {
	Spec  FigureSpec
	Cells []CellResult
}

// Cell returns the cell with the given label, or nil.
func (r *FigureResult) Cell(label string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Condition.Label == label {
			return &r.Cells[i]
		}
	}
	return nil
}

// seedInputs is the immutable per-seed state shared by every condition of a
// grid: the synthetic dataset (split once) and, for MLP figures, the
// deterministic initialization. Building these once per seed instead of
// once per (condition, seed) saves |conds|−1 regenerations per seed, and
// sharing them read-only across concurrent cells is safe because datasets
// are immutable by convention and simulate.Run copies InitParams.
type seedInputs struct {
	train   *data.Dataset
	test    *data.Dataset
	mlpInit []float64
}

// buildSeedInputs generates the per-seed phishing-shaped datasets (seeds
// 1..scale.seeds()), split in the paper's 8400/2655 proportions, plus the
// MLP initialization when mlpHidden > 0. It is the one place a dataset size
// too small to split is rejected, so every sweep fails the same way.
func buildSeedInputs(scale Scale, mlpHidden int) ([]seedInputs, error) {
	trainN := scale.datasetSize() * data.PhishingTrainSize / data.PhishingSize
	if trainN < 2 || trainN >= scale.datasetSize() {
		return nil, fmt.Errorf("experiments: dataset size %d too small", scale.datasetSize())
	}
	out := make([]seedInputs, scale.seeds())
	for i := range out {
		seed := uint64(i + 1)
		ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
			N: scale.datasetSize(), Features: scale.features(), Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		// Deterministic split keyed by the seed.
		train, test, err := ds.Split(trainN, splitStream(seed))
		if err != nil {
			return nil, err
		}
		out[i] = seedInputs{train: train, test: test}
		if mlpHidden > 0 {
			mlp, err := model.NewMLP(scale.features(), mlpHidden)
			if err != nil {
				return nil, err
			}
			out[i].mlpInit = mlp.InitParams(randx.New(seed ^ 0x4d4c50).Normal)
		}
	}
	return out, nil
}

// resolveWorkers returns the effective scheduler width of a Sched.
func resolveWorkers(s Sched) int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellSpec builds the serializable run spec of one (condition, seed) cell —
// the same runspec.Spec object that drives cmd/dpbyz-train and the cluster
// backend, so any grid cell can be exported, replayed, or moved to a
// distributed deployment unchanged.
func CellSpec(fig FigureSpec, cond Condition, seed int) runspec.Spec {
	scale := fig.Scale
	s := runspec.Spec{
		Name: fig.ID + "/" + cond.Label,
		Data: runspec.DataSpec{N: scale.datasetSize(), Features: scale.features()},
		// The paper's stack applies its 0.99 momentum at the workers
		// (the distributed-momentum technique of its ref [16]); see
		// simulate.Config.WorkerMomentum.
		Steps:          scale.steps(),
		BatchSize:      fig.BatchSize,
		LearningRate:   PaperLearningRate,
		WorkerMomentum: PaperMomentum,
		ClipNorm:       PaperClipNorm,
		Seed:           uint64(seed),
		AccuracyEvery:  PaperAccuracyEvery,
	}
	if fig.MLPHidden > 0 {
		s.Model = runspec.ModelSpec{Name: "mlp", Hidden: fig.MLPHidden}
	} else {
		s.Model = runspec.ModelSpec{Name: "logistic-mse"}
	}
	if cond.AttackName == "" {
		// Unattacked baseline: all 11 workers honest, plain averaging
		// (the paper's "when averaging is used, the f workers ... behave
		// as honest workers").
		s.GAR = runspec.GARSpec{Name: "average", N: PaperWorkers}
	} else {
		s.GAR = runspec.GARSpec{Name: "mda", N: PaperWorkers, F: PaperByzantine}
		s.Attack = &runspec.AttackSpec{Name: cond.AttackName}
	}
	if cond.DP {
		s.Mechanism = &runspec.MechanismSpec{
			Name: "gaussian", Epsilon: fig.Epsilon, Delta: PaperDelta,
		}
	}
	return s
}

// grid is the one shape every Spec-driven experiment has: a list of
// conditions, each repeated over seeds 1..seeds, every (condition, seed)
// cell one runspec.Spec run on the local backend.
type grid struct {
	// id prefixes cell errors ("experiments: <id>/<label> seed k: ...").
	id    string
	sched Sched
	// inputs are the pre-built per-seed datasets (and MLP init) injected
	// into every cell of that seed; nil means each Spec materialises its own
	// data.
	inputs []seedInputs
	seeds  int
	conds  []Condition
	// spec builds the cell of condition index ci at seed 1..seeds.
	spec func(ci, seed int) runspec.Spec
}

// phishingGrid starts the grid of a phishing-shaped sweep: scale.seeds()
// seeds over datasets built once per seed and shared by every condition.
// The caller fills in conds and spec.
func phishingGrid(id string, sched Sched, scale Scale, mlpHidden int) (grid, error) {
	inputs, err := buildSeedInputs(scale, mlpHidden)
	if err != nil {
		return grid{}, err
	}
	return grid{id: id, sched: sched, inputs: inputs, seeds: len(inputs)}, nil
}

// run executes every cell on the scheduler and folds each condition's seeds,
// in seed order, into a CellResult. It returns the cells in condition order
// plus the raw runs (cell ci, seed k at index ci*seeds + k−1). Simulate's
// per-worker goroutines are enabled only when the scheduler itself is serial
// — pure oversubscription when cells already saturate the cores, and the
// results are identical either way.
func (g grid) run(ctx context.Context) ([]CellResult, []*runspec.Result, error) {
	runs := make([]*runspec.Result, len(g.conds)*g.seeds)
	inner := resolveWorkers(g.sched) == 1
	// One backend value for the grid: cells whose Specs pin one Data.Seed
	// share the dataset it last built, as phishing grids do through inputs.
	backend := &runspec.LocalBackend{}
	label := func(t int) string {
		return fmt.Sprintf("%s seed %d", g.conds[t/g.seeds].Label, t%g.seeds+1)
	}
	err := runGrid(ctx, g.sched, len(runs), label,
		func(ctx context.Context, t int) error {
			ci, si := t/g.seeds, t%g.seeds
			var opts []runspec.Option
			if g.inputs != nil {
				opts = append(opts, runspec.WithDatasets(g.inputs[si].train, g.inputs[si].test))
				if g.inputs[si].mlpInit != nil {
					opts = append(opts, runspec.WithInitParams(g.inputs[si].mlpInit))
				}
			}
			if inner {
				opts = append(opts, runspec.WithParallel())
			}
			res, err := backend.Run(ctx, g.spec(ci, si+1), opts...)
			if err != nil {
				return fmt.Errorf("experiments: %s/%s: %w", g.id, label(t), err)
			}
			runs[t] = res
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	cells := make([]CellResult, len(g.conds))
	for ci, cond := range g.conds {
		cell, err := aggregateCell(cond, runs[ci*g.seeds:(ci+1)*g.seeds])
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s/%s: %w", g.id, cond.Label, err)
		}
		cells[ci] = cell
	}
	return cells, runs, nil
}

// aggregateCell folds one condition's per-seed runs (in seed order) into a
// CellResult, exactly as the serial runner always has.
func aggregateCell(cond Condition, runs []*runspec.Result) (CellResult, error) {
	histories := make([]*metrics.History, len(runs))
	var minLossSum, stepsToMinSum float64
	for i, r := range runs {
		histories[i] = r.History
		minLoss, minStep := r.History.MinLoss()
		minLossSum += minLoss
		stepsToMinSum += float64(minStep)
	}
	loss, err := metrics.AggregateLoss(histories)
	if err != nil {
		return CellResult{}, err
	}
	acc, err := metrics.AggregateAccuracy(histories)
	if err != nil {
		return CellResult{}, err
	}
	accMean, accStd := acc.Final()
	seeds := float64(len(runs))
	return CellResult{
		Condition:      cond,
		Loss:           loss,
		Accuracy:       acc,
		MinLossMean:    minLossSum / seeds,
		StepsToMinMean: stepsToMinSum / seeds,
		FinalAccMean:   accMean,
		FinalAccStd:    accStd,
	}, nil
}

// runGrid runs total tasks as one batch on a Pool of min(width, total)
// workers, submitted at equal priority so they start in task order. The
// first task failure cancels the remaining tasks; every task is joined and
// the pool closed before returning. The returned error is the first
// non-cancellation task error in task order (falling back to the
// cancellation cause), so it too is independent of scheduling whenever a
// single task is at fault.
func runGrid(ctx context.Context, sched Sched, total int, label func(task int) string,
	run func(ctx context.Context, task int) error) error {
	if total <= 0 {
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, total)
	completed := make([]bool, total)
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	pool := NewPool(min(resolveWorkers(sched), total))
	defer pool.Close()
	wg.Add(total)
	for t := 0; t < total; t++ {
		pool.Submit(0, func() {
			defer wg.Done()
			if gctx.Err() != nil {
				return
			}
			if err := run(gctx, t); err != nil {
				errs[t] = err
				cancel()
				return
			}
			completed[t] = true
			mu.Lock()
			done++
			if sched.Progress != nil {
				sched.Progress(done, total, label(t))
			}
			mu.Unlock()
		})
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, ok := range completed {
		if !ok {
			// No task failed, yet the grid is incomplete: the parent
			// context was cancelled between task starts.
			return fmt.Errorf("experiments: grid interrupted: %w", context.Cause(ctx))
		}
	}
	return nil
}

// RunFigure executes every condition of a figure across the configured
// seeds and aggregates the curves. The (condition, seed) cells run on the
// scheduler configured by spec.Sched; see the package comment for the
// determinism contract.
func RunFigure(ctx context.Context, spec FigureSpec) (*FigureResult, error) {
	g, err := phishingGrid(spec.ID, spec.Sched, spec.Scale, spec.MLPHidden)
	if err != nil {
		return nil, err
	}
	g.conds = Grid()
	g.spec = func(ci, seed int) runspec.Spec { return CellSpec(spec, g.conds[ci], seed) }
	cells, _, err := g.run(ctx)
	if err != nil {
		return nil, err
	}
	return &FigureResult{Spec: spec, Cells: cells}, nil
}

// EpsilonSweepSpec is the full version's hyperparameter sweep over the
// privacy parameter ε at fixed batch size.
type EpsilonSweepSpec struct {
	// Epsilons are the per-step ε values to sweep (default full-version
	// grid {0.1, 0.2, 0.5, 0.9}).
	Epsilons []float64
	// BatchSize defaults to 50 (the Fig. 2 batch).
	BatchSize int
	// AttackName defaults to "alie".
	AttackName string
	Scale      Scale
	// Sched configures the (epsilon, seed) cell scheduler.
	Sched Sched
}

// EpsilonPoint is one sweep measurement.
type EpsilonPoint struct {
	Epsilon      float64
	MinLossMean  float64
	FinalAccMean float64
	FinalAccStd  float64
}

// RunEpsilonSweep measures how gracefully accuracy degrades as ε shrinks
// (the paper's "slightly larger privacy noise gracefully translates into
// slightly lower performances" observation). The (epsilon, seed) cells run
// on the same deterministic scheduler as RunFigure, with the per-seed
// datasets built once and shared across every ε.
func RunEpsilonSweep(ctx context.Context, spec EpsilonSweepSpec) ([]EpsilonPoint, error) {
	if len(spec.Epsilons) == 0 {
		spec.Epsilons = []float64{0.1, 0.2, 0.5, 0.9}
	}
	if spec.BatchSize == 0 {
		spec.BatchSize = 50
	}
	if spec.AttackName == "" {
		spec.AttackName = "alie"
	}
	g, err := phishingGrid("epssweep", spec.Sched, spec.Scale, 0)
	if err != nil {
		return nil, err
	}
	attacked := Condition{Label: spec.AttackName + "+dp", AttackName: spec.AttackName, DP: true}
	for _, eps := range spec.Epsilons {
		g.conds = append(g.conds, Condition{Label: fmt.Sprintf("eps=%v", eps), AttackName: spec.AttackName, DP: true})
	}
	g.spec = func(ci, seed int) runspec.Spec {
		fig := FigureSpec{ID: g.id, BatchSize: spec.BatchSize, Epsilon: spec.Epsilons[ci], Scale: spec.Scale}
		return CellSpec(fig, attacked, seed)
	}
	cells, _, err := g.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]EpsilonPoint, len(cells))
	for ci, cell := range cells {
		out[ci] = EpsilonPoint{
			Epsilon:      spec.Epsilons[ci],
			MinLossMean:  cell.MinLossMean,
			FinalAccMean: cell.FinalAccMean,
			FinalAccStd:  cell.FinalAccStd,
		}
	}
	return out, nil
}

// splitStream returns the deterministic stream used for the train/test
// split of a given seed, kept separate from the training stream so the
// split is stable across condition variations.
func splitStream(seed uint64) *randx.Stream {
	return randx.New(seed ^ 0x53504c4954) // "SPLIT"
}
