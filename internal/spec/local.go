package spec

import (
	"context"
	"sync"

	"dpbyz/internal/data"
	"dpbyz/internal/simulate"
)

// LocalBackend executes a Spec with the in-process simulator
// (internal/simulate): n worker pipelines in one process with an omniscient
// attacker, the configuration of the paper's figures. The steady-state step
// performs zero allocations when no observer is installed, preserving the
// simulator's AllocsPerRun gates.
//
// A LocalBackend value remembers the one dataset it last synthesized
// (datasetMemo). The value is safe for concurrent Runs and must not be
// copied after first use.
type LocalBackend struct {
	datasetMemo
}

// datasetMemo is the single-entry dataset memo both backends embed: a run
// whose Data block resolves to the same generation parameters as the
// previous run on the same backend value reuses that train/test split
// read-only instead of synthesizing it again, so a sweep — conditions ×
// seeds over one dataset — pays for the dataset once. Hold one value for a
// sweep; a fresh backend value is always cold, and the remembered dataset is
// freed with the value. Trajectories are bit-identical either way.
type datasetMemo struct {
	mu   sync.Mutex
	last builtData // guarded by mu
}

// dataKey is everything Spec.buildDatasets reads for a synthesized source,
// with defaults resolved: equal keys build bit-identical datasets.
type dataKey struct {
	source      string
	n, features int
	seed        uint64
	trainN      int
	separation  float64
}

// builtData is one buildDatasets result under the key that produced it.
type builtData struct {
	key         dataKey
	train, test *data.Dataset
}

// datasets is the Spec's buildDatasets behind the value's single-entry memo.
// A libsvm source always rebuilds: the file can change between runs. Two
// concurrent misses both build (no lock is held across synthesis) and the
// later store stays.
func (b *datasetMemo) datasets(s *Spec) (train, test *data.Dataset, err error) {
	d := s.Data
	key := dataKey{
		source: d.source(), n: d.n(), features: d.features(),
		seed: d.seed(s.Seed), trainN: d.TrainN, separation: d.separation(),
	}
	if key.source == "libsvm" {
		return s.buildDatasets()
	}
	b.mu.Lock()
	last := b.last
	b.mu.Unlock()
	if last.train != nil && last.key == key {
		return last.train, last.test, nil
	}
	if train, test, err = s.buildDatasets(); err != nil {
		return nil, nil, err
	}
	b.mu.Lock()
	b.last = builtData{key: key, train: train, test: test}
	b.mu.Unlock()
	return train, test, nil
}

var _ Backend = (*LocalBackend)(nil)

// Name implements Backend.
func (b *LocalBackend) Name() string { return "local" }

// Config translates a Spec (plus runtime options) into the simulator's
// native configuration. Exposed for the in-package tests that gate the
// allocation behaviour of the materialized hot path.
func (b *LocalBackend) config(s *Spec, o *runOptions) (simulate.Config, error) {
	m, err := s.materializeFrom(o, func() (train, test *data.Dataset, err error) {
		return b.datasets(s)
	})
	if err != nil {
		return simulate.Config{}, err
	}
	cfg := simulate.Config{
		Model:             m.model,
		Train:             m.train,
		WorkerTrain:       m.workerTrain,
		Test:              m.test,
		GAR:               m.gar,
		Attack:            m.attack,
		Mechanism:         m.mech,
		Steps:             s.Steps,
		BatchSize:         s.BatchSize,
		LearningRate:      s.LearningRate,
		Momentum:          s.Momentum,
		WorkerMomentum:    s.WorkerMomentum,
		MomentumPostNoise: s.MomentumPostNoise,
		ClipNorm:          s.ClipNorm,
		Seed:              s.Seed,
		InitParams:        m.initParams,
		AccuracyEvery:     s.AccuracyEvery,
		VNRatioEvery:      s.VNRatioEvery,
		StepHook:          o.stepHook(),
	}
	if s.Staleness != nil {
		// The local arrival model: exactly Stragglers workers miss each
		// round's quorum cut, drawn from a dedicated seed-derived stream.
		cfg.Stragglers = s.Staleness.Stragglers
		cfg.LateDiscard = s.Staleness.late() == "discard"
	}
	if s.Membership != nil {
		// The local cohort never churns, so MinWorkers/MaxWorkers have no
		// local meaning; epochs run on the cluster's tracker and slot table.
		cfg.Epochs = &simulate.EpochConfig{
			EpochRounds: s.Membership.EpochRounds,
			FRatio:      s.Membership.FRatio,
			NewGAR:      s.NewGARFactory(),
		}
	}
	return cfg, nil
}

// Run implements Backend.
func (b *LocalBackend) Run(ctx context.Context, s Spec, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	cfg, err := b.config(&s, o)
	if err != nil {
		return nil, err
	}
	if cfg.Resume, err = o.loadResume(&s, b.Name()); err != nil {
		return nil, err
	}
	if cfg.SnapshotFunc, err = o.snapshotSaver(&s, b.Name()); err != nil {
		return nil, err
	}
	cfg.SnapshotEvery = o.checkpointEvery
	res, err := simulate.Run(ctx, cfg)
	if err != nil {
		return stopped(&s, b.Name(), err), err
	}
	out := &Result{Backend: b.Name(), Params: res.Params, History: res.History, Privacy: s.Privacy(s.Steps)}
	if s.Staleness != nil || s.Membership != nil {
		out.Cluster = &ClusterStats{
			Accepted:  res.Accepted,
			Discarded: res.Discarded,
			Missed:    res.Missed,
			Credited:  res.Credited,
			Epochs:    res.Epochs,
		}
	}
	return out, nil
}
