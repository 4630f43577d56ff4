// Package fleet is the long-lived multi-run control plane: a service that
// accepts Spec submissions over HTTP, schedules them across the local and
// cluster backends on the bounded deterministic pool, persists every
// in-flight run through internal/checkpoint at a configurable cadence, and
// fans each run's per-step telemetry out to any number of concurrent
// stream clients with resumable cursors.
//
// # Crash-resume contract
//
// Every run lives in its own directory under the store root (spec.json,
// meta.json, snapshot.json, events.jsonl — the RunDir layout); spec, meta
// and snapshot are replaced atomically and the event log is appended to.
// Before each resumable snapshot lands, the run's event log is
// flushed, so on ANY crash the on-disk log is at least as
// long as the on-disk snapshot's Step. A restarted service truncates each
// log back to exactly its snapshot's Step lines and resumes the run, whose
// bit-identical replay regenerates the truncated lines byte-for-byte:
// final parameters and the ledger equal an uninterrupted run's exactly, and
// every stream cursor position keeps meaning the same event across the
// crash — a reconnecting client replays from its last acked line with no
// loss and no duplicates.
//
// The contract holds for every local run. For a cluster run it holds on a
// fixed, synchronous cohort (no quorum cut, no churn), where the in-process
// backend's snapshots carry the epoch books and the adversary's attack
// half, for every attack. A cluster run whose Spec keeps worker momentum
// cannot resume exactly — that state is in no snapshot — so its resume
// fails with spec.ErrInexactResume and the run is marked failed.
//
// # Scheduler determinism contract
//
// Runs execute on an experiments.Pool: up to Width concurrently, queued
// runs starting in (priority descending, submission order) order. Each run
// derives all randomness from its own Spec, so run results are
// bit-identical at every pool width; only completion order observes
// scheduling. The service core below is deterministic in that sense; the
// HTTP edge (server.go) reads the wall clock for telemetry only, under
// reviewed waivers.
//
//dpbyz:deterministic
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/experiments"
	"dpbyz/internal/spec"
)

// Config configures a Service.
type Config struct {
	// Root is the store directory (created if needed).
	Root string
	// Width bounds concurrently executing runs (<= 0 means GOMAXPROCS).
	Width int
	// CheckpointEvery is the default resumable-snapshot cadence in steps
	// for submissions that do not set their own (<= 0 means 25).
	CheckpointEvery int
	// Logf routes service progress lines (nil discards them).
	Logf func(string, ...any)

	// hold, when non-nil, is called with each run's context and ID before
	// every step's event is logged. Crash tests block in it to stop runs at
	// a fixed step while they kill the service.
	hold func(ctx context.Context, id spec.RunID, step int)
}

// DefaultCheckpointEvery is the snapshot cadence used when neither the
// service configuration nor the submission sets one.
const DefaultCheckpointEvery = 25

// Service errors, matchable with errors.Is.
var (
	ErrNoRun      = errors.New("fleet: no such run")
	ErrStopped    = errors.New("fleet: service stopped")
	ErrNotRunning = errors.New("fleet: run is not cancellable")
	// errKilled makes every persistence path refuse after Kill, so a
	// simulated crash leaves the store exactly as stale as a real one.
	errKilled = errors.New("fleet: service killed")
)

// run is one fleet-managed run's live state. The meta field is guarded by
// the service mutex; the event log has its own.
type run struct {
	id  spec.RunID
	dir RunDir
	sp  spec.Spec
	log *EventLog

	meta       Meta
	task       *experiments.Task
	cancel     context.CancelFunc
	deleted    bool          // DELETE requested: a ctx abort means "cancelled", not "interrupted"
	finished   chan struct{} // closed when the run reaches a terminal state or the service stops
	finishOnce sync.Once
}

// markFinished closes the finished channel exactly once, whichever of the
// task body, Cancel or the stop path gets there first.
func (r *run) markFinished() {
	r.finishOnce.Do(func() { close(r.finished) })
}

// Service is the control plane: it owns the store, the scheduler pool and
// the per-run event logs. Open it, submit runs, stream events, Stop (or,
// in crash tests, Kill) it.
type Service struct {
	store Store
	every int
	logf  func(string, ...any)
	hold  func(context.Context, spec.RunID, int)

	// local and cluster execute every run of their backend for the
	// service's lifetime, so the runs of a sweep share the dataset the
	// backend value last built.
	local   spec.LocalBackend
	cluster spec.ClusterBackend

	pool       *experiments.Pool
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	runs    map[spec.RunID]*run // keyed lookup only; iteration goes through order
	order   []*run              // submission (Seq) order — the deterministic iteration path
	nextSeq uint64
	killed  bool
	stopped bool
}

// Open starts a service over the store at cfg.Root, rebuilding state from
// disk: terminal runs become streamable history, and every non-terminal
// run — queued or in flight when the previous process died — is realigned
// to its last snapshot and rescheduled. Runs whose directories
// are unreadable are skipped with a log line rather than failing the whole
// store.
func Open(cfg Config) (*Service, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	s := &Service{
		store: NewStore(cfg.Root),
		every: every,
		logf:  logf,
		hold:  cfg.hold,
		pool:  experiments.NewPool(cfg.Width),
		runs:  make(map[spec.RunID]*run),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	ids, err := s.store.List()
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if err := s.reopenRun(id); err != nil {
			s.logf("fleet: skipping run %s: %v", id, err)
		}
	}
	return s, nil
}

// reopenRun rebuilds one run from its directory and, for non-terminal
// statuses, realigns the event log with the snapshot and reschedules.
// Callers hold the service mutex.
func (s *Service) reopenRun(id spec.RunID) error {
	meta, err := s.store.LoadMeta(id)
	if err != nil {
		return err
	}
	sp, err := s.store.LoadSpec(id)
	if err != nil {
		return err
	}
	dir := s.store.Dir(id)
	log, err := OpenEventLog(dir.EventsPath())
	if err != nil {
		return err
	}
	r := &run{id: id, dir: dir, sp: *sp, log: log, meta: *meta}
	if meta.Seq >= s.nextSeq {
		s.nextSeq = meta.Seq + 1
	}
	if meta.Status.Terminal() {
		// History only: the log is complete; close it so streams that catch
		// up terminate instead of waiting for more.
		r.finished = make(chan struct{})
		close(r.finished)
		if err := log.Close(); err != nil {
			return err
		}
		s.insert(r)
		return nil
	}
	// In flight when the previous process died. The crash-resume contract
	// guarantees log length >= snapshot.Step; truncate back to exactly the
	// snapshot's position (or zero for a run that never snapshotted) so the
	// resumed bit-identical replay regenerates the tail without duplicates.
	snap, err := dir.LoadSnapshot()
	if err != nil {
		_ = log.Close()
		return err
	}
	at := 0
	if snap != nil {
		at = snap.Step
	}
	if log.Len() < at {
		_ = log.Close()
		return fmt.Errorf("fleet: run %s: event log has %d lines, snapshot at step %d (durability contract violated)", id, log.Len(), at)
	}
	if err := log.Truncate(at); err != nil {
		_ = log.Close()
		return err
	}
	// Pending in memory only: on disk the run keeps the status it was
	// found with, which a restart treats the same way.
	r.meta.Status = StatusPending
	s.insert(r)
	s.schedule(r, snap)
	return nil
}

// insert registers the run under the service mutex, keeping order sorted
// by Seq (reopen walks IDs lexically, which is already Seq order for the
// fleet's zero-padded IDs; Submit appends at the tail).
func (s *Service) insert(r *run) {
	s.runs[r.id] = r
	s.order = append(s.order, r)
}

// Submit accepts a validated submission, persists one run directory per
// spec and queues them all. It returns the minted run IDs in order.
func (s *Service) Submit(sub *spec.Submission) ([]spec.RunID, error) {
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	backend := sub.Backend
	if backend == "" {
		backend = "local"
	}
	every := sub.CheckpointEvery
	if every <= 0 {
		every = s.every
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.killed {
		return nil, ErrStopped
	}
	ids := make([]spec.RunID, 0, len(sub.Runs))
	for i := range sub.Runs {
		seq := s.nextSeq
		s.nextSeq++
		id := spec.FormatRunID(seq)
		dir := s.store.Dir(id)
		if err := dir.Ensure(); err != nil {
			return ids, err
		}
		if err := s.store.SaveSpec(id, &sub.Runs[i]); err != nil {
			return ids, err
		}
		log, err := OpenEventLog(dir.EventsPath())
		if err != nil {
			return ids, err
		}
		r := &run{
			id: id, dir: dir, sp: sub.Runs[i], log: log,
			meta: Meta{
				Version: MetaVersion, ID: id, Seq: seq,
				Priority: sub.Priority, Backend: backend,
				CheckpointEvery: every, Status: StatusPending,
			},
		}
		if err := s.store.SaveMeta(&r.meta); err != nil {
			_ = log.Close()
			return ids, err
		}
		s.insert(r)
		s.schedule(r, nil)
		ids = append(ids, id)
	}
	return ids, nil
}

// schedule queues the run on the pool. Callers hold the service mutex; the
// run body takes it again only after Submit returns the worker's slot.
func (s *Service) schedule(r *run, resume *checkpoint.RunState) {
	runCtx, cancel := context.WithCancel(s.baseCtx)
	r.cancel = cancel
	r.finished = make(chan struct{})
	r.task = s.pool.Submit(r.meta.Priority, func() {
		defer r.markFinished()
		s.execute(runCtx, r, resume)
	})
	if r.task == nil { // pool closed under us: the stop path owns cleanup
		cancel()
		r.markFinished()
	}
}

// backendFor maps a Meta.Backend name to its executor.
func (s *Service) backendFor(name string) spec.Backend {
	if name == "cluster" {
		return &s.cluster
	}
	return &s.local
}

// execute runs one scheduled run to a terminal state. It is the only
// writer of the run's meta while the run is scheduled, so its read-modify-
// write transitions need only the service mutex for the in-memory copy.
func (s *Service) execute(ctx context.Context, r *run, resume *checkpoint.RunState) {
	s.mu.Lock()
	if s.killed || s.stopped {
		s.mu.Unlock()
		return
	}
	// In memory only (/runs, Counts): a restart reschedules a pending run
	// exactly as it would a running one, so the disk keeps "pending".
	r.meta.Status = StatusRunning
	meta := r.meta
	s.mu.Unlock()

	obs := &logObserver{log: r.log}
	if s.hold != nil {
		obs.hold = func(step int) { s.hold(ctx, r.id, step) }
	}
	opts := []spec.Option{
		spec.WithObserver(obs),
		// The durability contract's load-bearing line: the event log
		// reaches the disk BEFORE the snapshot that presumes it.
		spec.WithSnapshotFunc(func(st *checkpoint.RunState) error {
			if s.isKilled() {
				return errKilled
			}
			if err := r.log.Flush(); err != nil {
				return err
			}
			return checkpoint.SaveRunState(r.dir.SnapshotPath(), st)
		}, meta.CheckpointEvery),
	}
	if resume != nil {
		opts = append(opts, spec.WithResume(resume))
	}
	res, err := s.backendFor(meta.Backend).Run(ctx, r.sp, opts...)
	switch {
	case err == nil:
		s.finish(r, StatusDone, nil, res)
	case ctx.Err() != nil && s.wasDeleted(r):
		// DELETE /runs/{id}: the backend aborted the in-flight round without
		// committing it and flushed a snapshot of the completed prefix;
		// res, when set, carries the released prefix's privacy spend.
		s.finish(r, StatusCancelled, nil, res)
	case ctx.Err() != nil:
		// Service stop (or kill): not a run outcome. The on-disk status
		// is still non-terminal, which is exactly what makes a restarted
		// service reschedule it.
	default:
		s.finish(r, StatusFailed, err, res)
	}
}

// finish moves the run to a terminal state, persists the outcome and closes
// the event log. After Kill, nothing is persisted — crash semantics.
func (s *Service) finish(r *run, status Status, cause error, res *spec.Result) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	r.meta.Status = status
	r.meta.Error = ""
	if cause != nil {
		r.meta.Error = cause.Error()
	}
	if res != nil {
		if res.History != nil && res.History.Len() > 0 {
			if loss := res.History.FinalLoss(); !math.IsNaN(loss) {
				l := loss
				r.meta.FinalLoss = &l
			}
		}
		r.meta.Cluster = res.Cluster
		r.meta.Privacy = res.Privacy
	}
	meta := r.meta
	s.mu.Unlock()
	if err := s.store.SaveMeta(&meta); err != nil {
		s.logf("fleet: persist %s outcome: %v", r.id, err)
	}
	if err := r.log.Close(); err != nil {
		s.logf("fleet: close %s event log: %v", r.id, err)
	}
}

// wasDeleted reports whether Cancel marked the run before its context died.
func (s *Service) wasDeleted(r *run) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.deleted
}

func (s *Service) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// Cancel cancels the run with no side effects on its results: a queued run
// is dequeued before it ever starts; a running run's context is cancelled,
// which aborts the in-flight round without committing it (the PR-7
// contract) and flushes a final snapshot of the completed prefix. Terminal
// runs return ErrNotRunning.
func (s *Service) Cancel(id spec.RunID) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoRun
	}
	if r.meta.Status.Terminal() {
		s.mu.Unlock()
		return ErrNotRunning
	}
	r.deleted = true
	task, cancel := r.task, r.cancel
	s.mu.Unlock()

	if s.pool.Cancel(task) {
		// Dequeued before a worker picked it up: the task body never runs,
		// so the transition is ours to make.
		cancel()
		s.finish(r, StatusCancelled, nil, nil)
		r.markFinished()
		return nil
	}
	// A worker owns it (or it already finished): cancelling the context
	// hands the transition to execute.
	cancel()
	return nil
}

// Meta returns a copy of the run's current metadata.
func (s *Service) Meta(id spec.RunID) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return Meta{}, ErrNoRun
	}
	return r.meta, nil
}

// List returns every run's metadata in submission order.
func (s *Service) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, len(s.order))
	for i, r := range s.order {
		out[i] = r.meta
	}
	return out
}

// Events returns the run's event log for streaming and replay. The log
// outlives the run: terminal runs replay their full history to any cursor.
func (s *Service) Events(id spec.RunID) (*EventLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, ErrNoRun
	}
	return r.log, nil
}

// Snapshot returns the run's latest resumable snapshot, nil when none has
// been written yet.
func (s *Service) Snapshot(id spec.RunID) (*checkpoint.RunState, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoRun
	}
	return r.dir.LoadSnapshot()
}

// Counts is the scheduler half of GET /metrics.
type Counts struct {
	Total      int `json:"runsTotal"`
	Active     int `json:"runsActive"`
	Done       int `json:"runsDone"`
	Failed     int `json:"runsFailed"`
	Cancelled  int `json:"runsCancelled"`
	QueueDepth int `json:"queueDepth"`
}

// Counts summarizes the fleet's run population.
func (s *Service) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Counts{Total: len(s.order), QueueDepth: s.pool.QueueDepth()}
	for _, r := range s.order {
		switch r.meta.Status {
		case StatusDone:
			c.Done++
		case StatusFailed:
			c.Failed++
		case StatusCancelled:
			c.Cancelled++
		case StatusRunning:
			c.Active++
		}
	}
	return c
}

// Stop shuts the service down gracefully: queued runs stay pending,
// in-flight runs are interrupted — each flushes a final snapshot of its
// completed prefix on the way out — and every event log is flushed and
// closed. The on-disk store is left exactly where a reopened service
// resumes every interrupted run bit-identically.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped || s.killed {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	order := make([]*run, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()

	s.baseCancel()
	s.pool.Close() // discards the queue, waits out in-flight runs
	for _, r := range order {
		if err := r.log.Close(); err != nil {
			s.logf("fleet: close %s event log: %v", r.id, err)
		}
		r.markFinished()
	}
}

// Kill simulates a crash for the kill-and-resume tests: every persistence
// path refuses from this instant — snapshots, meta transitions, event-log
// flushes all stop — in-flight contexts die, and buffered event lines are
// abandoned unflushed, exactly what SIGKILL would leave behind. The store
// is then as stale as a real crash makes it, and Open must recover from it.
// It is the crash model of the fleet tests until a fault-injecting
// filesystem replaces it.
//
//dpbyz:testseam
func (s *Service) Kill() {
	s.mu.Lock()
	if s.stopped || s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	order := make([]*run, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()

	for _, r := range order {
		r.log.Abandon() // drop buffered lines on the floor, like a crash
	}
	s.baseCancel()
	s.pool.Close()
	for _, r := range order {
		r.markFinished()
	}
}

// logObserver bridges a backend's per-step observer callbacks into the
// run's event log, mirroring spec.JSONLSink's NaN-dropping wire form.
type logObserver struct {
	log  *EventLog
	hold func(step int) // Config.hold, bound to the run
}

// OnStep implements spec.Observer.
func (o *logObserver) OnStep(ev spec.StepEvent) error {
	if o.hold != nil {
		o.hold(ev.Step)
	}
	e := Event{Step: ev.Step, Loss: ev.Loss}
	if !math.IsNaN(ev.Accuracy) {
		a := ev.Accuracy
		e.Accuracy = &a
	}
	if !math.IsNaN(ev.VNRatio) {
		v := ev.VNRatio
		e.VNRatio = &v
	}
	return o.log.Append(e)
}
