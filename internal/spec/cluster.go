package spec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/worker"
)

// ErrInexactResume refuses a cluster resume that could not continue the
// uninterrupted run: the Spec keeps worker momentum, which lives in the
// worker processes and in no cluster snapshot.
var ErrInexactResume = errors.New("spec: cluster resume would not be exact")

// ClusterBackend executes a Spec in the networked parameter-server
// realization (internal/cluster): one server plus GAR.N worker loops
// speaking the binary frame protocol over a pluggable Transport. With the
// default in-process ChanTransport the whole cluster lives in one process —
// the distributed code paths, including adversarial channel faults
// configured via cluster.ChanTransport.WithFaults, under test-harness
// control. With a TCP transport the same Run drives a real deployment's
// in-process equivalent; cross-process deployments use ServeSpec and
// JoinSpec from one process per node.
//
// The first GAR.F workers share the run's one colluding adversary, which
// recomputes the honest submissions from the broadcast parameters, so for a
// fixed, synchronous cohort a Spec — attacked or not — ends on the same bits
// as on LocalBackend. Under a quorum cut or membership churn the adversary
// still crafts from the scheduled honest cohort, not from the set the server
// accepts, and which submissions make a round depends on message timing.
//
// Its snapshots carry the server's half, the epoch books and the
// adversary's attack half, and its workers replay their streams to the
// resumed round, so a resumed fixed, synchronous cohort is the uninterrupted
// run — params and ledger — for every attack. A Spec with worker momentum
// is refused with ErrInexactResume before any round runs.
//
// Like LocalBackend, a ClusterBackend value remembers the one dataset it
// last synthesized (datasetMemo), so hold one value across a sweep. The
// value is safe for concurrent Runs and must not be copied after first use.
type ClusterBackend struct {
	datasetMemo
}

var _ Backend = (*ClusterBackend)(nil)

// Name implements Backend.
func (b *ClusterBackend) Name() string { return "cluster" }

// workerConfig translates the Spec's honest worker half for worker id.
func workerConfig(s *Spec, o *runOptions, m *materialized, id int, addr string) cluster.WorkerConfig {
	return cluster.WorkerConfig{
		Addr:              addr,
		Transport:         o.transport,
		MaxFrameBytes:     o.maxFrameBytes,
		WorkerID:          id,
		Membership:        s.Membership != nil,
		Model:             m.model,
		Train:             m.trainFor(id),
		BatchSize:         s.BatchSize,
		ClipNorm:          s.ClipNorm,
		Mechanism:         m.mech,
		Momentum:          s.WorkerMomentum,
		MomentumPostNoise: s.MomentumPostNoise,
		Seed:              s.Seed,
	}
}

// coalition builds the Spec's one colluding adversary over the honest
// workers [GAR.F, GAR.N) — the simulator's layout — or nil for an
// unattacked Spec (Validate rejects an attack with GAR.F == 0). Its rule is its own, not m.gar: the server aggregates
// concurrently, and a rule may be stateful (gar.Sketched builds its
// sketcher lazily).
func coalition(s *Spec, o *runOptions, m *materialized) (*worker.Coalition, error) {
	if s.Attack == nil {
		return nil, nil
	}
	rule, err := s.NewGARFactory()(s.GAR.N, s.GAR.F)
	if err != nil {
		return nil, fmt.Errorf("spec: adversary rule: %w", err)
	}
	honest := make([]cluster.WorkerConfig, s.GAR.N-s.GAR.F)
	for i := range honest {
		honest[i] = workerConfig(s, o, m, s.GAR.F+i, "")
	}
	return cluster.NewCoalition(m.attack, rule, s.Seed, honest)
}

// bindServer is the server half every cluster entry point shares: translate
// the Spec, pass the snapshot saver and the resume state through — adding
// and restoring adv's attack half when the adversary runs in this process —
// and bind the listen endpoint (NewServer rejects a snapshot that does not
// fit). A resume of an already-completed run — the final periodic snapshot
// carries Step == Steps — has no rounds left and must not leave a server
// waiting for workers: it runs no round and returns the finished result
// instead (done), the snapshot's parameters and ledger with an empty
// history, mirroring the local backend's idempotent resume. A mid-run
// resume of a Spec with worker momentum fails with ErrInexactResume.
func bindServer(ctx context.Context, s *Spec, o *runOptions, m *materialized, backend string, adv *worker.Coalition) (srv *cluster.Server, done *Result, err error) {
	addr := o.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cfg := cluster.ServerConfig{
		Addr:          addr,
		Transport:     o.transport,
		MaxFrameBytes: o.maxFrameBytes,
		Dim:           m.model.Dim(),
		Steps:         s.Steps,
		LearningRate:  s.LearningRate,
		Momentum:      s.Momentum,
		InitParams:    m.initParams,
		RoundTimeout:  o.roundTimeout,
		Logf:          o.logf,
		StepHook:      o.stepHook(),
		SnapshotEvery: o.checkpointEvery,
	}
	if cfg.Resume, err = o.loadResume(s, backend); err != nil {
		return nil, nil, err
	}
	if cfg.SnapshotFunc, err = o.snapshotSaver(s, backend); err != nil {
		return nil, nil, err
	}
	if save := cfg.SnapshotFunc; save != nil && adv != nil {
		cfg.SnapshotFunc = func(st *checkpoint.RunState) error {
			adv.Snapshot(st)
			return save(st)
		}
	}
	if s.Staleness != nil {
		cfg.LateCredit = s.Staleness.late() == "credit"
	}
	if ms := s.Membership; ms == nil {
		// Fixed cohort: the materialized rule and the fixed quorum.
		cfg.GAR = m.gar
		if s.Staleness != nil {
			cfg.Quorum = s.Quorum()
		}
	} else {
		// Epoched membership re-derives the quorum and the GAR per epoch, so
		// the fixed-cohort knobs stay unset; the staleness budget moves into
		// the per-epoch derivation and the late policy keeps its meaning.
		cfg.Membership = &cluster.MembershipConfig{
			MinWorkers:  ms.MinWorkers,
			MaxWorkers:  ms.MaxWorkers,
			FRatio:      ms.FRatio,
			EpochRounds: ms.EpochRounds,
			NewGAR:      s.NewGARFactory(),
		}
		if s.Staleness != nil {
			cfg.Membership.Stragglers = s.Staleness.Stragglers
		}
	}
	if srv, err = cluster.NewServer(cfg); err != nil {
		return nil, nil, err
	}
	switch st := cfg.Resume; {
	case st == nil:
	case st.Step == s.Steps:
		res, err := srv.Run(ctx)
		if err != nil {
			return nil, nil, err
		}
		return nil, clusterResult(s, backend, res, nil), nil
	case s.WorkerMomentum > 0:
		err = fmt.Errorf("%w: worker momentum %v is in no cluster snapshot", ErrInexactResume, s.WorkerMomentum)
	case adv != nil:
		if err = adv.Restore(st); err != nil {
			err = fmt.Errorf("spec: adversary: %w", err)
		}
	}
	if err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	return srv, nil, nil
}

// clusterResult packages a finished server run; workerRounds is nil when the
// workers ran in other processes.
func clusterResult(s *Spec, backend string, res *cluster.ServerResult, workerRounds []int) *Result {
	return &Result{
		Backend: backend,
		Params:  res.Params,
		History: res.History,
		Privacy: s.Privacy(s.Steps),
		Cluster: &ClusterStats{
			Accepted:     res.AcceptedGradients,
			Discarded:    res.DiscardedSubmissions,
			Missed:       res.MissedGradients,
			Credited:     res.CreditedGradients,
			WorkerRounds: workerRounds,
			Epochs:       res.Epochs,
		},
	}
}

// Run implements Backend: it binds the server, spins all GAR.N workers as
// goroutines over the configured transport, and joins everything before
// returning. Worker errors after a successful server run (e.g. a faulty
// link dropping the final broadcast) are reported through WithLogf, not as
// run failures — the trained model is the server's.
func (b *ClusterBackend) Run(ctx context.Context, s Spec, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	m, err := s.materializeFrom(o, func() (train, test *data.Dataset, err error) {
		return b.datasets(&s)
	})
	if err != nil {
		return nil, err
	}
	if o.transport == nil {
		o.transport = cluster.NewChanTransport()
		if o.addr == "" {
			o.addr = "cluster"
		}
	}

	// Build the adversary before the server binds: an error (unreachable
	// for a validated Spec, but load-bearing if the registries ever drift)
	// must fail the run up front, not leave the server waiting forever for
	// a worker that will never say hello.
	adv, err := coalition(&s, o, m)
	if err != nil {
		return nil, err
	}
	srv, done, err := bindServer(ctx, &s, o, m, b.Name(), adv)
	if err != nil || done != nil {
		return done, err
	}

	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	n := s.GAR.N
	rounds := make([]int, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		cfg := workerConfig(&s, o, m, id, srv.Addr())
		if id < s.GAR.F {
			cfg.Attack = adv
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cluster.RunWorker(workerCtx, cfg)
			if res != nil {
				rounds[id] = res.Rounds
			}
			workerErrs[id] = err
		}()
	}

	res, runErr := srv.Run(ctx)
	// The final broadcast (or the server teardown on error) unblocks every
	// worker; the cancel covers workers wedged before their hello.
	stopWorkers()
	wg.Wait()
	if runErr != nil {
		return stopped(&s, b.Name(), runErr), runErr
	}
	if o.logf != nil {
		for id, werr := range workerErrs {
			if werr != nil {
				o.logf("worker %d: %v", id, werr)
			}
		}
	}
	return clusterResult(&s, b.Name(), res, rounds), nil
}

// ServeSpec runs only the parameter-server half of a Spec — the entry point
// for cmd/dpbyz-server, where each worker joins from its own process via
// JoinSpec. Placement (address, transport, frame caps, timeouts,
// checkpointing) comes from the options; the scenario comes from the Spec.
//
// A resumed server re-enters its snapshot's epoch and ledger, and the
// workers replay their streams to the first broadcast. The Byzantine
// processes build their adversary afresh, though, so a cross-process
// attacked resume is exact only for attacks that keep no state and draw
// nothing from the attack stream. A Spec with worker momentum is refused
// with ErrInexactResume, as on ClusterBackend.
func ServeSpec(ctx context.Context, s Spec, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	m, err := s.materialize(o)
	if err != nil {
		return nil, err
	}
	srv, done, err := bindServer(ctx, &s, o, m, "cluster", nil)
	if err != nil || done != nil {
		return done, err
	}
	if o.logf != nil {
		o.logf("listening on %s, waiting for %d workers", srv.Addr(), s.GAR.N)
	}
	res, err := srv.Run(ctx)
	if err != nil {
		return stopped(&s, "cluster", err), err
	}
	return clusterResult(&s, "cluster", res, nil), nil
}

// JoinSpec runs only worker workerID's half of a Spec — the entry point for
// cmd/dpbyz-worker. Every worker materializes the same deterministic train
// split the local backend samples from (distinct per-worker batch streams
// come from the shared run seed and the worker id), so a cluster assembled
// from JoinSpec processes trains the same scenario as LocalBackend.
func JoinSpec(ctx context.Context, s Spec, workerID int, opts ...Option) (*cluster.WorkerResult, error) {
	maxID := s.GAR.N
	if s.Membership != nil {
		// Epoched membership admits late joiners beyond the initial cohort,
		// up to the population cap.
		maxID = s.Membership.MaxWorkers
	}
	if workerID < 0 || workerID >= maxID {
		return nil, fmt.Errorf("spec: worker id %d outside [0, %d)", workerID, maxID)
	}
	o := applyOptions(opts)
	m, err := s.materialize(o)
	if err != nil {
		return nil, err
	}
	addr := o.addr
	if addr == "" {
		addr = "127.0.0.1:7001"
	}
	cfg := workerConfig(&s, o, m, workerID, addr)
	if workerID < s.GAR.F {
		// A Byzantine process builds its own copy of the adversary, identical
		// to every other's because it is deterministic.
		if cfg.Attack, err = coalition(&s, o, m); err != nil {
			return nil, err
		}
	}
	return cluster.RunWorker(ctx, cfg)
}
