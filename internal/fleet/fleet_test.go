package fleet

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/spec"
)

// fleetSpec is a DP + attack + worker-momentum run — every piece of
// per-step mutable state is live, so the kill-and-resume test below can
// only pass if the whole snapshot/event-log machinery is exact.
func fleetSpec(steps int, seed uint64) spec.Spec {
	return spec.Spec{
		Data:           spec.DataSpec{N: 600, Features: 10},
		GAR:            spec.GARSpec{Name: "trimmedmean", N: 7, F: 2},
		Attack:         &spec.AttackSpec{Name: "alie"},
		Mechanism:      &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:          steps,
		BatchSize:      20,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       0.01,
		Seed:           seed,
	}
}

// waitFinished blocks until the run is terminal or the deadline passes.
func waitFinished(t *testing.T, svc *Service, id spec.RunID, timeout time.Duration) {
	t.Helper()
	done, err := svc.Finished(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("run %s did not finish within %v", id, timeout)
	}
}

// assertEventsExactlyOnce checks the run's log holds events 0..steps-1,
// each exactly once, in order — the no-loss/no-duplication invariant.
func assertEventsExactlyOnce(t *testing.T, log *EventLog, steps int) {
	t.Helper()
	if log.Len() != steps {
		t.Fatalf("event log has %d lines, want %d", log.Len(), steps)
	}
	for i := 0; i < steps; i++ {
		ev, err := log.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != i || ev.Step != i {
			t.Fatalf("event %d = seq %d step %d (duplicate or gap)", i, ev.Seq, ev.Step)
		}
	}
}

// holdAt returns a Config.hold that stops every run before it logs step
// killAt and reports the run on the returned channel; the run stays there
// until its context dies. Killing the service once every run reported is a
// crash at a fixed step, whatever the machine's speed.
func holdAt(killAt, runs int) (func(context.Context, spec.RunID, int), chan spec.RunID) {
	held := make(chan spec.RunID, runs)
	return func(ctx context.Context, id spec.RunID, step int) {
		if step == killAt {
			held <- id
			<-ctx.Done()
		}
	}, held
}

// waitHeld blocks until n runs stopped at their kill step.
func waitHeld(t *testing.T, held <-chan spec.RunID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-held:
		case <-time.After(60 * time.Second):
			t.Fatal("runs never reached the kill step")
		}
	}
}

// The acceptance test: a fleet service killed with >= 2 runs in flight and
// restarted produces final params bit-identical to an uninterrupted
// service, and the regenerated event logs hold every event exactly once.
func TestFleetKillResumeBitIdentity(t *testing.T) {
	const (
		steps  = 1000
		every  = 25
		nRuns  = 2
		killAt = 310 // past the snapshot at 300, so the log outruns it
	)
	root := t.TempDir()

	// Reference trajectories: direct uninterrupted backend runs.
	want := make([][]float64, nRuns)
	for i := 0; i < nRuns; i++ {
		res, err := (&spec.LocalBackend{}).Run(context.Background(), fleetSpec(steps, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Params
	}

	// Service A: both runs in flight concurrently, each stopped at killAt.
	hold, held := holdAt(killAt, nRuns)
	svcA, err := Open(Config{Root: root, Width: nRuns, CheckpointEvery: every, Logf: t.Logf, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	sub := &spec.Submission{Runs: []spec.Spec{fleetSpec(steps, 1), fleetSpec(steps, 2)}, CheckpointEvery: every}
	ids, err := svcA.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != nRuns {
		t.Fatalf("submitted %d runs, want %d", len(ids), nRuns)
	}

	// Both runs are demonstrably mid-flight (some telemetry, not done) at
	// the kill step; kill the service there — buffered events die with it
	// and the store keeps only what the durability contract promised.
	waitHeld(t, held, nRuns)
	progressed := 0
	for _, id := range ids {
		log, err := svcA.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := log.Len(); n >= every && n < steps {
			progressed++
		}
		if log.Len() >= steps {
			t.Fatalf("run %s finished before the kill; raise steps", id)
		}
	}
	if progressed != nRuns {
		t.Fatal("runs never reached mid-flight")
	}
	svcA.Kill()

	// The killed store is genuinely stale: meta still says pending (the
	// running status never reaches the disk), the log may exceed the
	// snapshot (flushed-but-unsnapshotted progress) and the snapshot is
	// behind the trajectory the dead service had computed.
	for _, id := range ids {
		meta, err := NewStore(root).LoadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Status != StatusPending {
			t.Fatalf("killed run %s has status %q on disk, want pending", id, meta.Status)
		}
	}

	// Service B on the same store: every run resumes and completes.
	svcB, err := Open(Config{Root: root, Width: nRuns, CheckpointEvery: every, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Stop()
	for _, id := range ids {
		waitFinished(t, svcB, id, 60*time.Second)
	}

	for i, id := range ids {
		meta, err := svcB.Meta(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Status != StatusDone {
			t.Fatalf("resumed run %s ended %q (%s), want done", id, meta.Status, meta.Error)
		}
		snap, err := svcB.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil || snap.Step != steps {
			t.Fatalf("run %s final snapshot missing or at wrong step", id)
		}
		if len(snap.Params) != len(want[i]) {
			t.Fatalf("run %s param dims %d vs %d", id, len(snap.Params), len(want[i]))
		}
		for j := range snap.Params {
			if snap.Params[j] != want[i][j] {
				t.Fatalf("run %s param %d differs after kill+resume: %v vs %v",
					id, j, snap.Params[j], want[i][j])
			}
		}
		log, err := svcB.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		assertEventsExactlyOnce(t, log, steps)
	}
}

// The running status lives in memory only: while a run is mid-flight the
// service and its counts say running, and meta.json on disk still says
// pending — all a restart needs to reschedule it. The terminal transition
// is the next write.
func TestFleetRunningStatusStaysInMemory(t *testing.T) {
	root := t.TempDir()
	hold, held := holdAt(5, 1)
	svc, err := Open(Config{Root: root, Width: 1, CheckpointEvery: 10, Logf: t.Logf, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	ids, err := svc.Submit(&spec.Submission{Runs: []spec.Spec{fleetSpec(40, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	waitHeld(t, held, 1)

	meta, err := svc.Meta(id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusRunning {
		t.Errorf("in-flight run reads %q in the service, want running", meta.Status)
	}
	if c := svc.Counts(); c.Active != 1 {
		t.Errorf("Counts().Active = %d with one run in flight, want 1", c.Active)
	}
	disk, err := NewStore(root).LoadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Status != StatusPending {
		t.Errorf("in-flight run reads %q on disk, want pending", disk.Status)
	}

	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, id, 60*time.Second)
	if disk, err = NewStore(root).LoadMeta(id); err != nil || disk.Status != StatusCancelled {
		t.Fatalf("cancelled run reads %+v (%v) on disk, want cancelled", disk, err)
	}
}

// firstSteps forwards the events of steps below n and drops the rest.
type firstSteps struct {
	n    int
	next spec.Observer
}

func (o firstSteps) OnStep(ev spec.StepEvent) error {
	if ev.Step >= o.n {
		return nil
	}
	return o.next.OnStep(ev)
}

// A store written while the running status still reached the disk holds a
// run whose meta.json says running, beside a mid-run snapshot and an event
// log that outruns it. Open resumes it without rewriting its meta.json,
// and it finishes bit-identical to an uninterrupted run with every event
// exactly once.
func TestFleetResumesRunningMetaFromOlderStore(t *testing.T) {
	const (
		steps    = 60
		every    = 10
		snapAt   = 30
		logged   = 34 // the log outruns the snapshot, as after a crash
		holdStep = 45
	)
	ctx := context.Background()
	sp := fleetSpec(steps, 5)
	want, err := (&spec.LocalBackend{}).Run(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	store := NewStore(root)
	id := spec.FormatRunID(0)
	dir := store.Dir(id)
	if err := dir.Ensure(); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSpec(id, &sp); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveMeta(&Meta{
		Version: MetaVersion, ID: id, Backend: "local",
		CheckpointEvery: every, Status: StatusRunning,
	}); err != nil {
		t.Fatal(err)
	}
	log, err := OpenEventLog(dir.EventsPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&spec.LocalBackend{}).Run(ctx, sp,
		spec.WithObserver(firstSteps{n: logged, next: &logObserver{log: log}}),
		spec.WithSnapshotFunc(func(st *checkpoint.RunState) error {
			if st.Step != snapAt {
				return nil
			}
			return checkpoint.SaveRunState(dir.SnapshotPath(), st)
		}, every),
	); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// A hard link keeps the written meta.json's inode alive, so a rewrite
	// (a rename onto a new file) cannot come back with the same number.
	pin := filepath.Join(t.TempDir(), "meta.json")
	if err := os.Link(dir.MetaPath(), pin); err != nil {
		t.Fatal(err)
	}

	reached, release := make(chan struct{}), make(chan struct{})
	hold := func(ctx context.Context, _ spec.RunID, step int) {
		if step == holdStep {
			close(reached)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
	svc, err := Open(Config{Root: root, Width: 1, Logf: t.Logf, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	select {
	case <-reached:
	case <-time.After(60 * time.Second):
		t.Fatal("the resumed run never reached the hold step")
	}
	written, err := os.Stat(pin)
	if err != nil {
		t.Fatal(err)
	}
	if now, err := os.Stat(dir.MetaPath()); err != nil || !os.SameFile(written, now) {
		t.Fatalf("restart rewrote the resumed run's meta.json (%v)", err)
	}
	if disk, err := store.LoadMeta(id); err != nil || disk.Status != StatusRunning {
		t.Fatalf("resumed run reads %+v (%v) on disk, want running", disk, err)
	}
	if meta, err := svc.Meta(id); err != nil || meta.Status != StatusRunning {
		t.Fatalf("resumed run reads %+v (%v) in the service, want running", meta, err)
	}
	close(release)

	got := finalParams(t, svc, id, steps)
	for j := range want.Params {
		if got[j] != want.Params[j] {
			t.Fatalf("param %d differs after resuming the older store: %v vs %v", j, got[j], want.Params[j])
		}
	}
	events, err := svc.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	assertEventsExactlyOnce(t, events, steps)
	if disk, err := store.LoadMeta(id); err != nil || disk.Status != StatusDone {
		t.Fatalf("finished run reads %+v (%v) on disk, want done", disk, err)
	}
}

// A graceful stop leaves the store resumable too: interrupted runs flush a
// final snapshot, stay non-terminal on disk, and a reopened service
// finishes them with the same exactly-once event history.
func TestFleetStopResume(t *testing.T) {
	const (
		steps = 1000
		every = 25
	)
	root := t.TempDir()
	svcA, err := Open(Config{Root: root, Width: 1, CheckpointEvery: every, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := svcA.Submit(&spec.Submission{Runs: []spec.Spec{fleetSpec(steps, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	deadline := time.Now().Add(30 * time.Second)
	for {
		log, err := svcA.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := log.Len(); n >= every && n < steps {
			break
		}
		if log.Len() >= steps {
			t.Fatal("run finished before the stop; raise steps")
		}
		if time.Now().After(deadline) {
			t.Fatal("run never reached mid-flight")
		}
		time.Sleep(200 * time.Microsecond)
	}
	svcA.Stop()

	// The graceful path flushed a snapshot on interrupt: snapshot and log
	// both exist, with log length >= snapshot step (the durability bound).
	st, err := checkpoint.LoadRunState(NewStore(root).Dir(id).SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	if st.Step <= 0 || st.Step >= steps {
		t.Fatalf("interrupt snapshot at step %d", st.Step)
	}

	svcB, err := Open(Config{Root: root, Width: 1, CheckpointEvery: every, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Stop()
	waitFinished(t, svcB, id, 60*time.Second)
	meta, err := svcB.Meta(id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusDone {
		t.Fatalf("run ended %q (%s), want done", meta.Status, meta.Error)
	}
	log, err := svcB.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	assertEventsExactlyOnce(t, log, steps)
}

// DELETE semantics: a queued run never starts; a running run aborts with
// no side effects beyond its flushed prefix; both end cancelled.
func TestFleetCancel(t *testing.T) {
	root := t.TempDir()
	svc, err := Open(Config{Root: root, Width: 1, CheckpointEvery: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	// Width 1: the first run occupies the worker; the second stays queued.
	ids, err := svc.Submit(&spec.Submission{Runs: []spec.Spec{
		fleetSpec(4000, 1), fleetSpec(50, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	running, queued := ids[0], ids[1]

	// Cancel the queued run before it ever starts.
	if err := svc.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, queued, 10*time.Second)
	meta, err := svc.Meta(queued)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusCancelled || meta.Privacy != (spec.Privacy{}) {
		t.Fatalf("queued run ended %q with privacy %+v, want cancelled and nothing released", meta.Status, meta.Privacy)
	}
	log, err := svc.Events(queued)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Fatalf("cancelled-before-start run logged %d events", log.Len())
	}

	// Cancel the running run mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		log, err := svc.Events(running)
		if err != nil {
			t.Fatal(err)
		}
		if log.Len() >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never progressed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := svc.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, running, 30*time.Second)
	meta, err = svc.Meta(running)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusCancelled {
		t.Fatalf("running run ended %q (%s), want cancelled", meta.Status, meta.Error)
	}
	// The spend covers every committed round plus the one in flight.
	log, err = svc.Events(running)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Privacy.Releases != log.Len()+1 {
		t.Fatalf("cancelled run's privacy %+v after %d committed rounds", meta.Privacy, log.Len())
	}
	// Cancelling a terminal run is a conflict, not a repeat.
	if err := svc.Cancel(running); err != ErrNotRunning {
		t.Fatalf("second cancel returned %v, want ErrNotRunning", err)
	}
}

// A cluster-backend submission runs to done through the same control plane.
func TestFleetClusterBackend(t *testing.T) {
	root := t.TempDir()
	svc, err := Open(Config{Root: root, Width: 1, CheckpointEvery: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	sp := spec.Spec{
		Data:         spec.DataSpec{N: 400, Features: 8},
		GAR:          spec.GARSpec{Name: "trimmedmean", N: 5, F: 1},
		Attack:       &spec.AttackSpec{Name: "signflip"},
		Steps:        30,
		BatchSize:    10,
		LearningRate: 1,
		Seed:         3,
	}
	ids, err := svc.Submit(&spec.Submission{Backend: "cluster", Runs: []spec.Spec{sp}})
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, ids[0], 60*time.Second)
	meta, err := svc.Meta(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != StatusDone {
		t.Fatalf("cluster run ended %q (%s), want done", meta.Status, meta.Error)
	}
	if meta.Cluster == nil {
		t.Fatal("cluster run carries no ClusterStats")
	}
	if got := meta.Cluster.Accepted + meta.Cluster.Missed; got != 5*30 {
		t.Fatalf("accounting: accepted+missed = %d, want %d", got, 5*30)
	}
	log, err := svc.Events(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	assertEventsExactlyOnce(t, log, 30)
}

// A fleet cluster submission killed mid-run and resumed by a restarted
// service is the uninterrupted run: the same final params, every event
// exactly once and equal to the uninterrupted log's, and the same ledger in
// meta.json (the in-process workers' round counts aside). The Spec is the
// plain trajectory Spec of the spec package's pins with the stateful drift
// attack: a fixed, synchronous cohort, the domain where a cluster resume is
// exact.
func TestFleetKillResumeCluster(t *testing.T) {
	const (
		steps  = 20
		every  = 5
		killAt = 12 // past the snapshot at 10, so the log outruns it
	)
	sp := spec.Spec{
		Data:         spec.DataSpec{N: 400, Features: 10},
		GAR:          spec.GARSpec{Name: "trimmedmean", N: 7, F: 2},
		Attack:       &spec.AttackSpec{Name: "drift"},
		Mechanism:    &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:        steps,
		BatchSize:    20,
		LearningRate: 2,
		Momentum:     0.9,
		ClipNorm:     0.01,
		Seed:         3,
	}
	sub := &spec.Submission{Backend: "cluster", Runs: []spec.Spec{sp}, CheckpointEvery: every}

	// finished runs the service at root until its one run is terminal and
	// returns the run's final snapshot, event log and meta.json.
	finished := func(svc *Service, root string, id spec.RunID) (*checkpoint.RunState, *EventLog, *Meta) {
		t.Helper()
		waitFinished(t, svc, id, 60*time.Second)
		snap, err := svc.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		log, err := svc.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := NewStore(root).LoadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Status != StatusDone || meta.Cluster == nil || snap == nil || snap.Step != steps {
			t.Fatalf("run %s ended %q (%s) with ledger %v", id, meta.Status, meta.Error, meta.Cluster)
		}
		assertEventsExactlyOnce(t, log, steps)
		return snap, log, meta
	}

	refRoot := t.TempDir()
	ref, err := Open(Config{Root: refRoot, Width: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	refIDs, err := ref.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, wantLog, wantMeta := finished(ref, refRoot, refIDs[0])

	root := t.TempDir()
	hold, held := holdAt(killAt, 1)
	svcA, err := Open(Config{Root: root, Width: 1, Logf: t.Logf, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := svcA.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitHeld(t, held, 1)
	svcA.Kill()
	if snap, err := NewStore(root).Dir(ids[0]).LoadSnapshot(); err != nil || snap == nil || snap.Step != 10 {
		t.Fatalf("killed run's snapshot %v (%v), want one at step 10", snap, err)
	}

	svcB, err := Open(Config{Root: root, Width: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Stop()
	snap, log, meta := finished(svcB, root, ids[0])
	for i := range wantSnap.Params {
		if snap.Params[i] != wantSnap.Params[i] {
			t.Fatalf("param %d differs after kill+resume: %v vs %v", i, snap.Params[i], wantSnap.Params[i])
		}
	}
	for i := 0; i < steps; i++ {
		got, err := log.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wantLog.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("event %d after kill+resume %+v, uninterrupted %+v", i, got, want)
		}
	}
	got, want := *meta.Cluster, *wantMeta.Cluster
	got.WorkerRounds, want.WorkerRounds = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("meta.json ledger after kill+resume %+v, uninterrupted %+v", got, want)
	}
	if meta.Privacy != wantMeta.Privacy || meta.Privacy.Method != "rdp" {
		t.Errorf("meta.json privacy after kill+resume %+v, uninterrupted %+v", meta.Privacy, wantMeta.Privacy)
	}
}

// Priority orders queued runs: with one worker busy, a later high-priority
// submission overtakes earlier low-priority ones.
func TestFleetPriorityScheduling(t *testing.T) {
	// The first run to log a step is held there until it is cancelled, so
	// the single worker is provably busy before the others are submitted:
	// a worker still idle at the low-priority Submit would take that run
	// ahead of the blocker.
	var holding atomic.Bool
	started := make(chan struct{})
	hold := func(ctx context.Context, _ spec.RunID, _ int) {
		if holding.CompareAndSwap(false, true) {
			close(started)
			<-ctx.Done()
		}
	}
	root := t.TempDir()
	svc, err := Open(Config{Root: root, Width: 1, CheckpointEvery: 50, Logf: t.Logf, hold: hold})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	// Occupy the single worker, so the later submissions are genuinely
	// queued behind it (it is cancelled at the end, not awaited).
	blocker, err := svc.Submit(&spec.Submission{Runs: []spec.Spec{fleetSpec(500000, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(60 * time.Second):
		t.Fatal("the blocker never started")
	}
	// The low-priority run is long so it cannot slip to done in the gap
	// between the high-priority run finishing and the assertion below.
	low, err := svc.Submit(&spec.Submission{Priority: 1, Runs: []spec.Spec{fleetSpec(500000, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.Submit(&spec.Submission{Priority: 9, Runs: []spec.Spec{fleetSpec(40, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	// Both are queued while the blocker runs; release the worker and let the
	// scheduler pick. Priority must beat submission order.
	lowMeta, err := svc.Meta(low[0])
	if err != nil {
		t.Fatal(err)
	}
	highMeta, err := svc.Meta(high[0])
	if err != nil {
		t.Fatal(err)
	}
	if lowMeta.Status != StatusPending || highMeta.Status != StatusPending {
		t.Fatalf("queued runs not pending (low %q, high %q); blocker too short",
			lowMeta.Status, highMeta.Status)
	}
	if err := svc.Cancel(blocker[0]); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, high[0], 60*time.Second)
	// When the high-priority run finishes, the low one must not have
	// finished first (it started strictly later on the single worker).
	lowMeta, err = svc.Meta(low[0])
	if err != nil {
		t.Fatal(err)
	}
	if lowMeta.Status == StatusDone {
		t.Fatal("low-priority run finished before the high-priority one on a width-1 pool")
	}
	if err := svc.Cancel(low[0]); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, svc, low[0], 60*time.Second)
	waitFinished(t, svc, blocker[0], 60*time.Second)
}

// finalParams waits for the run and returns its final snapshot's params.
func finalParams(t *testing.T, svc *Service, id spec.RunID, steps int) []float64 {
	t.Helper()
	waitFinished(t, svc, id, 60*time.Second)
	if meta, err := svc.Meta(id); err != nil || meta.Status != StatusDone {
		t.Fatalf("run %s ended %+v (%v), want done", id, meta, err)
	}
	snap, err := svc.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Step != steps {
		t.Fatalf("run %s final snapshot missing or at wrong step", id)
	}
	return snap.Params
}

// The service runs every local run on one backend value, which remembers
// the dataset it last built. Runs of two data keys interleaved two at a time
// — each evicting the other's dataset, misses racing — must end in exactly
// the params a fresh service gives each Spec alone.
func TestFleetInterleavedDataKeysMatchFreshService(t *testing.T) {
	const steps = 40
	mk := func(key int, seed uint64) spec.Spec {
		s := fleetSpec(steps, seed)
		s.Data = spec.DataSpec{N: 400 + 100*key, Features: 8 + 2*key, Seed: uint64(100 + key)}
		return s
	}
	subs := []*spec.Submission{
		{Runs: []spec.Spec{mk(0, 1), mk(1, 2), mk(0, 3), mk(1, 4)}},
		{Runs: []spec.Spec{mk(1, 5), mk(0, 6), mk(1, 7), mk(0, 8)}},
	}

	shared, err := Open(Config{Root: t.TempDir(), Width: 2, CheckpointEvery: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Stop()
	var ids []spec.RunID
	var specs []spec.Spec
	for _, sub := range subs {
		got, err := shared.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
		specs = append(specs, sub.Runs...)
	}

	for i, id := range ids {
		got := finalParams(t, shared, id, steps)

		fresh, err := Open(Config{Root: t.TempDir(), Width: 1, CheckpointEvery: 10, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		freshIDs, err := fresh.Submit(&spec.Submission{Runs: specs[i : i+1]})
		if err != nil {
			t.Fatal(err)
		}
		want := finalParams(t, fresh, freshIDs[0], steps)
		fresh.Stop()

		if len(got) != len(want) {
			t.Fatalf("run %s: %d params, fresh service %d", id, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %s param %d: %v on the shared service, %v on a fresh one", id, j, got[j], want[j])
			}
		}
	}
}
