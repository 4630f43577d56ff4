package main

import (
	"fmt"

	"dpbyz/internal/data"
	"dpbyz/internal/randx"
	"dpbyz/internal/spec"
)

// Every Spec the benchmark runs is built here, from -seed and nothing else.
// The program under test sees only these Specs (and, for the two wide
// workloads, the datasets built from the same seed).

// runSeed spreads -seed so that the per-run offsets of different seeds never
// overlap, and keeps the result non-zero (a zero Data.Seed means "use the run
// seed", which would tie the dataset to the run).
func runSeed(seed uint64, i int) uint64 { return seed*1_000_003 + 17 + uint64(i) }

// size is how much work one batch does: runs × steps rounds.
type size struct{ runs, steps int }

func (s size) rounds() int { return s.runs * s.steps }

// fig2Spec is the paper's §5.1 set-up: the shape of every figure and of
// every experiment grid in this repository.
func fig2Spec(seed uint64, run, steps int) spec.Spec {
	return spec.Spec{
		Name:           "fig2_local",
		Data:           spec.DataSpec{Seed: runSeed(seed, 0)},
		Model:          spec.ModelSpec{Name: "logistic-mse"},
		GAR:            spec.GARSpec{Name: "mda", N: 11, F: 5},
		Attack:         &spec.AttackSpec{Name: "alie"},
		Mechanism:      &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		Steps:          steps,
		BatchSize:      50,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       1e-2,
		Seed:           runSeed(seed, run),
	}
}

// Wide-model shape shared by the two cluster workloads: d = 10⁴.
const (
	wideN        = 512
	wideFeatures = 9999
)

func wideData(seed uint64) spec.DataSpec {
	return spec.DataSpec{N: wideN, Features: wideFeatures, Seed: runSeed(seed, 0)}
}

// krumWideSpec makes the Θ(n²·d) pairwise pass the largest single cost.
func krumWideSpec(seed uint64, steps int) spec.Spec {
	return spec.Spec{
		Name:           "krum_wide_chan",
		Data:           wideData(seed),
		Model:          spec.ModelSpec{Name: "logistic-mse"},
		GAR:            spec.GARSpec{Name: "krum", N: 64, F: 16, Kernel: "exact"},
		Mechanism:      &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		Steps:          steps,
		BatchSize:      10,
		LearningRate:   0.5,
		WorkerMomentum: 0.9,
		ClipNorm:       1e-2,
		Seed:           runSeed(seed, 1),
	}
}

// medianEpochSpec is the mirror image: a cheap coordinate-wise rule behind
// real sockets and the epoched server loop, so the wire dominates.
func medianEpochSpec(seed uint64, steps int) spec.Spec {
	return spec.Spec{
		Name:  "median_epoch_tcp",
		Data:  wideData(seed),
		Model: spec.ModelSpec{Name: "logistic-mse"},
		GAR:   spec.GARSpec{Name: "median", N: 16, F: 4},
		Membership: &spec.MembershipSpec{
			MinWorkers: 16, MaxWorkers: 16, FRatio: 0.25, EpochRounds: 50,
		},
		Mechanism:      &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		Steps:          steps,
		BatchSize:      10,
		LearningRate:   0.5,
		WorkerMomentum: 0.9,
		ClipNorm:       1e-2,
		Seed:           runSeed(seed, 1),
	}
}

// fleetSpec is one small run of the sweep: compute per round is tiny, so
// per-run fixed costs decide the throughput.
func fleetSpec(seed uint64, run, steps int) spec.Spec {
	return spec.Spec{
		Name:      fmt.Sprintf("fleet_sweep_http-%03d", run),
		Data:      spec.DataSpec{N: 500, Features: 10, Seed: runSeed(seed, 0)},
		Model:     spec.ModelSpec{Name: "logistic-mse"},
		GAR:       spec.GARSpec{Name: "trimmedmean", N: 8, F: 2},
		Staleness: &spec.StalenessSpec{Stragglers: 1, Late: "credit"},
		Membership: &spec.MembershipSpec{
			MinWorkers: 8, MaxWorkers: 8, FRatio: 0.25, EpochRounds: 20,
		},
		Mechanism:    &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		Steps:        steps,
		BatchSize:    10,
		LearningRate: 0.5,
		ClipNorm:     1e-2,
		Seed:         runSeed(seed, run),
	}
}

// buildDatasets synthesizes the dataset a DataSpec describes and splits it in
// the paper's 8400/11055 proportion. The cluster workloads build it once and
// hand it to every batch, so that a batch measures rounds and not synthesis;
// the set-up metric runs the Spec without it and pays for synthesis.
func buildDatasets(d spec.DataSpec) (train, test *data.Dataset, err error) {
	ds, err := data.SyntheticPhishing(data.SyntheticPhishingConfig{
		N: d.N, Features: d.Features, Seed: d.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: synthesize dataset: %w", err)
	}
	trainN := ds.Len() * data.PhishingTrainSize / data.PhishingSize
	train, test, err = ds.Split(trainN, randx.New(d.Seed^0x53504c4954))
	if err != nil {
		return nil, nil, fmt.Errorf("bench: split dataset: %w", err)
	}
	return train, test, nil
}
