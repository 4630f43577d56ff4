// Package experiments declaratively encodes every table and figure of the
// paper's evaluation (§5 and the appendix) and provides runners that
// regenerate them: Figures 2–4 (loss/accuracy under the DP × attack grid),
// Table 1 / Propositions 1–3 (VN-condition thresholds), Theorem 1 (the
// Θ(d·log(1/δ)/(T·b²·ε²)) error rate) and the full version's ε sweep.
//
// Each table is built for a Scale so the same experiment can run at paper
// scale from cmd/dpbyz-experiments or at smoke-test scale from the test
// suite and benchmarks.
//
// # Every result is a Table
//
// Every experiment returns what it prints as Tables — a title, columns of
// header, width and fmt verb, rows of cells and a footer — and one writer,
// WriteTables, prints them all: a Sweep's cells (Sweep.Table, a figure's
// Summary as the footer), Table 1 (one table per model size), Theorem 1's
// d, b and T sweeps, the empirical VN ratio and the crossover's pivot
// (CrossoverResult.Table). cmd/dpbyz-vnratio prints Table 1's columns too.
//
// # Every table is one Sweep
//
// Every Spec-driven table — Figures 2–4 and the MLP figure, the ε sweep,
// the heterogeneity and staleness sweeps, the batch-size crossover and the
// spec cell — is a Sweep value: a title, key and metric columns, and rows,
// each row one runspec.Spec repeated over seeds 1..k. Constructors such as
// Figure2 and EpsilonSweep build them with the paper's settings as
// constants; a caller that wants a smaller grid trims Rows. One runner, Run,
// executes any Sweep on Pool (Sched.Workers goroutines, default GOMAXPROCS)
// and Sweep.Table renders its cells; the crossover adds only its pivot.
// Progress labels are "<row keys> seed k". Theorem 1 and the empirical VN
// ratio are not Spec-driven — the first needs an inverse-time learning-rate
// schedule and a Gaussian-mean data source no Spec can name, the second
// samples raw gradients without training — and keep their own loops, with
// every setting but Theorem1Spec's four fields a constant.
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
	"strings"
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
	// Workers caps how many (row, seed) cells run concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial order. The results
	// are bit-identical at every setting.
	Workers int
	// Progress, when non-nil, is invoked after each cell completes, with
	// the number of completed cells, the grid total and the finished cell's
	// label. Invocations are serialized but arrive in completion order,
	// which depends on scheduling.
	Progress func(done, total int, label string)
}

// Sweep is one table of the evaluation: rows of runspec.Specs, each run at
// seeds 1..Seeds and folded into one CellResult, rendered by Sweep.Table as
// the row's key cells followed by its Metrics.
type Sweep struct {
	// ID names the table in cell errors ("experiments: <id>/<row> seed k").
	ID string
	// Title is the table's title.
	Title string
	// Keys are the left-aligned key columns; every row has one cell each.
	Keys []Key
	// Metrics are the right-aligned metric columns after the keys.
	Metrics []Metric
	// Seeds repeats every row at seeds 1..Seeds; 0 runs each row once at
	// its Spec's own seed.
	Seeds int
	Rows  []Row

	// sharedData marks a phishing-shaped sweep: every row reads the
	// synthetic dataset Rows[0].Spec.Data describes, so Run builds each
	// seed's split (and MLP initialization) once and hands it to every row.
	sharedData bool
}

// Key is one key column: a header and the width its cells are padded to.
type Key struct {
	Header string
	Width  int
}

// Row is one row of a Sweep.
type Row struct {
	// Keys are the row's pre-formatted key cells, one per Sweep.Keys.
	Keys []string
	// Spec is the run behind the row; Run sets its Seed per repetition.
	Spec runspec.Spec
}

// label names the row in progress reports and errors.
func (r Row) label() string { return strings.Join(r.Keys, " ") }

// CellResult aggregates one row's runs.
type CellResult struct {
	// Label is the row's key cells joined by spaces, e.g. "alie+dp".
	Label string
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
	// Accepted, Missed, Discarded and Credited are the delivery ledger
	// summed over seeds (zero for fully synchronous rows). For a staleness
	// row Accepted + Missed == seeds × n × steps exactly.
	Accepted  int
	Missed    int
	Discarded int
	Credited  int
}

// Cell returns the cell with the given label, or nil.
func Cell(cells []CellResult, label string) *CellResult {
	for i := range cells {
		if cells[i].Label == label {
			return &cells[i]
		}
	}
	return nil
}

// seedInputs is the immutable per-seed state shared by every row of a
// phishing-shaped sweep: the synthetic dataset (split once) and, for MLP
// figures, the deterministic initialization. Building these once per seed
// instead of once per (row, seed) saves |rows|−1 regenerations per seed, and
// sharing them read-only across concurrent cells is safe because datasets
// are immutable by convention and simulate.Run copies InitParams.
type seedInputs struct {
	train   *data.Dataset
	test    *data.Dataset
	mlpInit []float64
}

// buildSeedInputs generates the per-seed phishing-shaped datasets that s
// describes (seeds 1..seeds), split in the paper's 8400/2655 proportions,
// plus the MLP initialization when s names an MLP. It is the one place a
// dataset size too small to split is rejected, so every sweep fails the
// same way.
func buildSeedInputs(s runspec.Spec, seeds int) ([]seedInputs, error) {
	size, features := s.Data.N, s.Data.Features
	trainN := size * data.PhishingTrainSize / data.PhishingSize
	if trainN < 2 || trainN >= size {
		return nil, fmt.Errorf("experiments: dataset size %d too small", size)
	}
	out := make([]seedInputs, seeds)
	for i := range out {
		seed := uint64(i + 1)
		ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
			N: size, Features: features, Seed: seed,
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
		if s.Model.Name == "mlp" {
			mlp, err := model.NewMLP(features, s.Model.Hidden)
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

// Run executes every (row, seed) cell of the sweep on the scheduler and
// folds each row's seeds, in seed order, into a CellResult; the cells come
// back in row order. See the package comment for the determinism contract.
// A cell's own loops fan out by their work (vecmath.ChunkWorkers) whatever
// the scheduler's width; the results are identical either way.
func Run(ctx context.Context, sw Sweep, sched Sched) ([]CellResult, error) {
	seeds := max(sw.Seeds, 1)
	var inputs []seedInputs
	if sw.sharedData && len(sw.Rows) > 0 {
		// Every row trains on row 0's datasets and MLP init.
		first := sw.Rows[0].Spec
		for _, row := range sw.Rows[1:] {
			if row.Spec.Data != first.Data || row.Spec.Model != first.Model {
				return nil, fmt.Errorf("experiments: %s/%s: data or model differs from row %s, but the sweep's rows share one dataset",
					sw.ID, row.label(), sw.Rows[0].label())
			}
		}
		var err error
		if inputs, err = buildSeedInputs(sw.Rows[0].Spec, seeds); err != nil {
			return nil, err
		}
	}
	// Cell (row ri, seed k) is task ri*seeds + k−1.
	runs := make([]*runspec.Result, len(sw.Rows)*seeds)
	// One backend value for the sweep: cells whose Specs pin one Data.Seed
	// share the dataset it last built, as phishing sweeps do through inputs.
	backend := &runspec.LocalBackend{}
	label := func(t int) string {
		return fmt.Sprintf("%s seed %d", sw.Rows[t/seeds].label(), t%seeds+1)
	}
	err := runGrid(ctx, sched, len(runs), label,
		func(ctx context.Context, t int) error {
			s, si := sw.Rows[t/seeds].Spec, t%seeds
			if sw.Seeds > 0 {
				s.Seed = uint64(si + 1)
			}
			var opts []runspec.Option
			if inputs != nil {
				opts = append(opts, runspec.WithDatasets(inputs[si].train, inputs[si].test))
				if inputs[si].mlpInit != nil {
					opts = append(opts, runspec.WithInitParams(inputs[si].mlpInit))
				}
			}
			res, err := backend.Run(ctx, s, opts...)
			if err != nil {
				return fmt.Errorf("experiments: %s/%s: %w", sw.ID, label(t), err)
			}
			runs[t] = res
			return nil
		})
	if err != nil {
		return nil, err
	}
	cells := make([]CellResult, len(sw.Rows))
	for ri, row := range sw.Rows {
		cell, err := aggregateCell(row.label(), runs[ri*seeds:(ri+1)*seeds])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", sw.ID, row.label(), err)
		}
		cells[ri] = cell
	}
	return cells, nil
}

// aggregateCell folds one row's per-seed runs (in seed order) into a
// CellResult, exactly as the serial runner always has.
func aggregateCell(label string, runs []*runspec.Result) (CellResult, error) {
	cell := CellResult{Label: label}
	histories := make([]*metrics.History, len(runs))
	var minLossSum, stepsToMinSum float64
	for i, r := range runs {
		histories[i] = r.History
		minLoss, minStep := r.History.MinLoss()
		minLossSum += minLoss
		stepsToMinSum += float64(minStep)
		if c := r.Cluster; c != nil {
			cell.Accepted += c.Accepted
			cell.Missed += c.Missed
			cell.Discarded += c.Discarded
			cell.Credited += c.Credited
		}
	}
	var err error
	if cell.Loss, err = metrics.AggregateLoss(histories); err != nil {
		return CellResult{}, err
	}
	if cell.Accuracy, err = metrics.AggregateAccuracy(histories); err != nil {
		return CellResult{}, err
	}
	seeds := float64(len(runs))
	cell.MinLossMean = minLossSum / seeds
	cell.StepsToMinMean = stepsToMinSum / seeds
	cell.FinalAccMean, cell.FinalAccStd = cell.Accuracy.Final()
	return cell, nil
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

// splitStream returns the deterministic stream used for the train/test
// split of a given seed, kept separate from the training stream so the
// split is stable across condition variations.
func splitStream(seed uint64) *randx.Stream {
	return randx.New(seed ^ 0x53504c4954) // "SPLIT"
}
