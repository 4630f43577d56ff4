package spec

import (
	"context"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
)

// Backend executes a Spec. Implementations differ only in where the workers
// and the server live — one process, many goroutines over an in-process
// transport, or many machines over TCP — never in what the run means.
type Backend interface {
	// Run executes the spec to completion and returns the outcome. Options
	// carry runtime concerns (observers, checkpointing, transports) that are
	// deliberately not part of the serializable Spec. A run that stops
	// inside its round loop — cancelled, diverged — returns its error beside
	// a Result that carries only Backend and the Privacy of the rounds it
	// released.
	Run(ctx context.Context, s Spec, opts ...Option) (*Result, error)
	// Name identifies the backend in results and snapshots.
	Name() string
}

// Result is the outcome of a run on any backend.
type Result struct {
	// Backend names the backend that produced the result.
	Backend string
	// Params is the final parameter vector w_T.
	Params []float64
	// History holds the per-step metrics. On the cluster backend the Loss
	// column is the server-side aggregate-norm proxy and Accuracy/VNRatio
	// are NaN (the server holds no data).
	History *metrics.History
	// Cluster carries the run's delivery accounting: always set by the
	// cluster backend, and by the local backend when the Spec enables
	// bounded staleness (nil for fully synchronous local runs, where every
	// submission is trivially accepted).
	Cluster *ClusterStats
	// Privacy is the run's spend, Spec.Privacy(Steps) for a completed run,
	// resumed or not.
	Privacy Privacy
}

// ClusterStats is the exact delivery accounting of a run: for a completed
// run Accepted + Missed equals exactly n × rounds.
type ClusterStats struct {
	// Accepted counts gradients that entered aggregation.
	Accepted int
	// Discarded counts frames rejected before aggregation (stale, duplicate,
	// spoofed, mis-dimensioned, or flooding).
	Discarded int
	// Missed counts (worker, round) pairs replaced by zero vectors after the
	// round timeout or quorum cut.
	Missed int
	// Credited counts accepted frames that arrived one round late and were
	// credited under the staleness policy (a subset of Accepted).
	Credited int
	// WorkerRounds records how many rounds each in-process worker completed
	// (nil when workers run in other processes, and on the local backend).
	WorkerRounds []int
	// Epochs holds the per-epoch membership ledgers (epoched runs only);
	// membership.BalanceEpochs(Epochs) holds on every completed run.
	Epochs []membership.EpochStat
}

// runOptions collects the runtime (non-serializable) knobs of a run.
type runOptions struct {
	observers []Observer

	// Dataset and init-param injection for callers that pre-build shared
	// inputs (the experiment grids).
	train, test *data.Dataset
	initParams  []float64

	// Checkpointing.
	checkpointPath  string
	checkpointEvery int
	snapshotFunc    func(*checkpoint.RunState) error
	resume          *checkpoint.RunState
	resumePath      string

	// Cluster placement.
	transport     cluster.Transport
	addr          string
	roundTimeout  time.Duration
	maxFrameBytes int
	logf          func(string, ...any)
}

// Option configures one run on a backend.
type Option func(*runOptions)

func applyOptions(opts []Option) *runOptions {
	o := &runOptions{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithObserver streams per-step metrics to o. Multiple observers compose;
// installing any observer trades the hot path's zero-allocation guarantee
// for visibility.
func WithObserver(obs Observer) Option {
	return func(o *runOptions) { o.observers = append(o.observers, obs) }
}

// WithDatasets injects pre-built train/test datasets, bypassing the Spec's
// Data materialization. The experiment grids use this to build each seed's
// datasets once and share them read-only across conditions.
func WithDatasets(train, test *data.Dataset) Option {
	return func(o *runOptions) { o.train, o.test = train, test }
}

// WithInitParams injects w_0, bypassing the Spec's deterministic
// initialization.
func WithInitParams(w []float64) Option {
	return func(o *runOptions) { o.initParams = w }
}

// WithCheckpointFile snapshots the run's resumable state to path every
// `every` completed steps (atomically, last snapshot wins) and after the
// final step.
func WithCheckpointFile(path string, every int) Option {
	return func(o *runOptions) { o.checkpointPath, o.checkpointEvery = path, every }
}

// WithSnapshotFunc routes the periodic resumable snapshots to save instead
// of a file, at a cadence of `every` completed steps (plus the final step).
// The backend stamps Backend and Spec on the state before calling save. The
// fleet control plane uses this to flush a run's event log to disk before
// each snapshot lands, so the log is always at least as long as any snapshot
// a restart can observe.
func WithSnapshotFunc(save func(*checkpoint.RunState) error, every int) Option {
	return func(o *runOptions) { o.snapshotFunc, o.checkpointEvery = save, every }
}

// WithResume continues a run from a snapshot previously written through
// WithCheckpointFile. The resumed run is the uninterrupted run — params,
// history tail and ledger — on the local backend, and on the cluster
// backend for a fixed, synchronous cohort; a cluster resume it could not
// make exact fails with ErrInexactResume (see ClusterBackend, ServeSpec).
func WithResume(st *checkpoint.RunState) Option {
	return func(o *runOptions) { o.resume = st }
}

// WithResumeFile is WithResume reading the snapshot from a file.
func WithResumeFile(path string) Option {
	return func(o *runOptions) { o.resumePath = path }
}

// WithTransport selects the cluster communication substrate (default: a
// fresh in-process ChanTransport per run).
func WithTransport(t cluster.Transport) Option {
	return func(o *runOptions) { o.transport = t }
}

// WithAddr sets the cluster listen/dial address (default "127.0.0.1:0" for
// TCP, an internal label for the chan transport).
func WithAddr(addr string) Option {
	return func(o *runOptions) { o.addr = addr }
}

// WithRoundTimeout bounds each cluster gradient-collection round.
func WithRoundTimeout(d time.Duration) Option {
	return func(o *runOptions) { o.roundTimeout = d }
}

// WithMaxFrameBytes caps the cluster wire-frame payload size.
func WithMaxFrameBytes(n int) Option {
	return func(o *runOptions) { o.maxFrameBytes = n }
}

// WithLogf routes backend progress lines (e.g. to log.Printf).
func WithLogf(f func(string, ...any)) Option {
	return func(o *runOptions) { o.logf = f }
}

// loadResume resolves the resume options into a validated snapshot (nil when
// resuming was not requested) and cross-checks it against the Spec.
func (o *runOptions) loadResume(s *Spec, backend string) (*checkpoint.RunState, error) {
	st := o.resume
	if st == nil && o.resumePath != "" {
		var err error
		st, err = checkpoint.LoadRunState(o.resumePath)
		if err != nil {
			return nil, err
		}
	}
	if st == nil {
		return nil, nil
	}
	specJSON, err := s.JSON()
	if err != nil {
		return nil, err
	}
	if err := st.CheckSpec(backend, specJSON); err != nil {
		return nil, err
	}
	return st, nil
}

// snapshotSaver resolves the checkpoint options into one save function that
// stamps Backend and the canonical Spec document before persisting — nil
// when checkpointing is off. WithSnapshotFunc wins over WithCheckpointFile.
func (o *runOptions) snapshotSaver(s *Spec, backend string) (func(*checkpoint.RunState) error, error) {
	save := o.snapshotFunc
	if save == nil && o.checkpointPath != "" {
		path := o.checkpointPath
		save = func(st *checkpoint.RunState) error { return checkpoint.SaveRunState(path, st) }
	}
	if save == nil || o.checkpointEvery <= 0 {
		return nil, nil
	}
	specJSON, err := s.JSON()
	if err != nil {
		return nil, err
	}
	return func(st *checkpoint.RunState) error {
		st.Backend = backend
		st.Spec = specJSON
		return save(st)
	}, nil
}

// stepHook folds the installed observers into a single simulate/cluster
// step hook, or nil when no observer is installed — keeping the hot path's
// nil check as the only cost.
func (o *runOptions) stepHook() func(rec metrics.StepRecord, params []float64) error {
	if len(o.observers) == 0 {
		return nil
	}
	obs := o.observers
	return func(rec metrics.StepRecord, params []float64) error {
		ev := StepEvent{
			Step:     rec.Step,
			Loss:     rec.Loss,
			Accuracy: rec.Accuracy,
			VNRatio:  rec.VNRatio,
			Params:   params,
		}
		for _, ob := range obs {
			if err := ob.OnStep(ev); err != nil {
				return err
			}
		}
		return nil
	}
}
