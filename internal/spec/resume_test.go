package spec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dpbyz/internal/checkpoint"
)

// resumeSpec is a DP + attack + worker-momentum run — every piece of
// per-step mutable state (params, velocity, momentum buffers, batch, noise
// and attack streams) is live, so bit-identical resume is only possible if
// the snapshot captures all of it.
func resumeSpec(steps int) Spec {
	return Spec{
		Data:           DataSpec{N: 600, Features: 10},
		GAR:            GARSpec{Name: "trimmedmean", N: 7, F: 2},
		Attack:         &AttackSpec{Name: "alie"},
		Mechanism:      &MechanismSpec{Name: "gaussian", Epsilon: 0.5, Delta: 1e-6},
		Steps:          steps,
		BatchSize:      20,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       0.01,
		Seed:           1,
	}
}

// abortAfter is an Observer that kills the run after a given step —
// simulating an interruption mid-run, after some snapshots were written.
type abortAfter struct {
	step int
}

var errAborted = errors.New("test: simulated interruption")

func (a *abortAfter) OnStep(ev StepEvent) error {
	if ev.Step >= a.step {
		return errAborted
	}
	return nil
}

// A run interrupted at step k and resumed from its last periodic snapshot
// must be bit-identical — parameters and every subsequent metric — to the
// run that was never interrupted.
func TestResumeBitIdentical(t *testing.T) {
	const (
		steps    = 60
		every    = 25 // snapshots at 25 and 50
		abortAt  = 34 // interrupt between the two; resume restarts at 25
		resumeAt = 25
	)
	ctx := context.Background()
	be := &LocalBackend{}

	full, err := be.Run(ctx, resumeSpec(steps))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	_, err = be.Run(ctx, resumeSpec(steps),
		WithCheckpointFile(path, every),
		WithObserver(&abortAfter{step: abortAt}))
	if !errors.Is(err, errAborted) {
		t.Fatalf("interrupted run returned %v, want the observer's abort", err)
	}

	st, err := checkpoint.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != resumeAt {
		t.Fatalf("snapshot at step %d, want %d", st.Step, resumeAt)
	}
	if st.Backend != "local" {
		t.Errorf("snapshot backend %q", st.Backend)
	}

	resumed, err := be.Run(ctx, resumeSpec(steps), WithResumeFile(path))
	if err != nil {
		t.Fatal(err)
	}

	if len(resumed.Params) != len(full.Params) {
		t.Fatalf("param dims %d vs %d", len(resumed.Params), len(full.Params))
	}
	for i := range full.Params {
		if resumed.Params[i] != full.Params[i] {
			t.Fatalf("param %d: resumed %v != uninterrupted %v (not bit-identical)",
				i, resumed.Params[i], full.Params[i])
		}
	}
	// The resumed history covers steps resumeAt..steps-1 and must match the
	// uninterrupted run's tail exactly.
	if resumed.History.Len() != steps-resumeAt {
		t.Fatalf("resumed history length %d, want %d", resumed.History.Len(), steps-resumeAt)
	}
	for i := 0; i < resumed.History.Len(); i++ {
		got, want := resumed.History.Record(i), full.History.Record(resumeAt+i)
		if got.Step != want.Step || got.Loss != want.Loss {
			t.Fatalf("step %d: resumed (step=%d, loss=%v) != full (step=%d, loss=%v)",
				resumeAt+i, got.Step, got.Loss, want.Step, want.Loss)
		}
	}
}

// Adaptive attacks carry mutable state (the IPM line-search factor, the
// drift accumulator) and partitioned runs carry per-worker shards; both must
// round-trip through RunState so an interrupted heterogeneous + adaptive run
// resumes bit-identically to the uninterrupted one.
func TestResumeAdaptiveAttackBitIdentical(t *testing.T) {
	for _, attackName := range []string{"ipm", "drift"} {
		t.Run(attackName, func(t *testing.T) {
			const (
				steps    = 60
				every    = 25
				abortAt  = 34
				resumeAt = 25
			)
			mk := func() Spec {
				s := resumeSpec(steps)
				s.Attack = &AttackSpec{Name: attackName}
				s.Partition = &PartitionSpec{Name: "dirichlet", Beta: 0.3}
				return s
			}
			ctx := context.Background()
			be := &LocalBackend{}

			full, err := be.Run(ctx, mk())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "snap.json")
			_, err = be.Run(ctx, mk(),
				WithCheckpointFile(path, every),
				WithObserver(&abortAfter{step: abortAt}))
			if !errors.Is(err, errAborted) {
				t.Fatalf("interrupted run returned %v, want the observer's abort", err)
			}
			st, err := checkpoint.LoadRunState(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != resumeAt {
				t.Fatalf("snapshot at step %d, want %d", st.Step, resumeAt)
			}
			if st.Attack == nil {
				t.Fatal("snapshot carries no adaptive attack state")
			}
			if attackName == "drift" && st.Attack.Drift == nil {
				t.Error("drift snapshot has no accumulated drift vector")
			}
			if attackName == "ipm" && st.Attack.Gain == 0 {
				t.Error("ipm snapshot has no line-search factor")
			}

			resumed, err := be.Run(ctx, mk(), WithResumeFile(path))
			if err != nil {
				t.Fatal(err)
			}
			for i := range full.Params {
				if resumed.Params[i] != full.Params[i] {
					t.Fatalf("param %d: resumed %v != uninterrupted %v (adaptive state lost)",
						i, resumed.Params[i], full.Params[i])
				}
			}
			for i := 0; i < resumed.History.Len(); i++ {
				got, want := resumed.History.Record(i), full.History.Record(resumeAt+i)
				if got.Step != want.Step || got.Loss != want.Loss {
					t.Fatalf("step %d: resumed loss %v != full %v", want.Step, got.Loss, want.Loss)
				}
			}
		})
	}
}

// A snapshot with adaptive state must not silently resume onto a stateless
// attack scenario.
func TestResumeAdaptiveStateOntoStatelessRejected(t *testing.T) {
	ctx := context.Background()
	be := &LocalBackend{}
	s := resumeSpec(20)
	s.Attack = &AttackSpec{Name: "drift"}
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := be.Run(ctx, s, WithCheckpointFile(path, 10)); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Step = 10
	stateless := resumeSpec(20)
	// Clear the snapshot's spec binding so only the attack-state check can
	// reject the mismatch.
	st.Spec = nil
	if _, err := be.Run(ctx, stateless, WithResume(st)); err == nil {
		t.Fatal("adaptive snapshot resumed onto a stateless attack")
	}
	// The converse mismatch — an adaptive scenario fed a snapshot without
	// attack state — must fail too, not silently reset the attacker.
	st.Attack = nil
	if _, err := be.Run(ctx, s, WithResume(st)); err == nil {
		t.Fatal("attack-state-free snapshot resumed onto an adaptive attack")
	}
}

// Resuming a completed run's final snapshot is an idempotent no-op: the
// finished parameters come back unchanged instead of an error, so scripted
// checkpoint-resume pipelines can re-run safely.
func TestResumeCompletedRunIdempotent(t *testing.T) {
	ctx := context.Background()
	be := &LocalBackend{}
	path := filepath.Join(t.TempDir(), "snap.json")
	full, err := be.Run(ctx, resumeSpec(20), WithCheckpointFile(path, 10))
	if err != nil {
		t.Fatal(err)
	}
	again, err := be.Run(ctx, resumeSpec(20), WithResumeFile(path))
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Params {
		if again.Params[i] != full.Params[i] {
			t.Fatalf("re-resumed params diverge at %d", i)
		}
	}
	if again.History.Len() != 0 {
		t.Errorf("no-op resume recorded %d steps", again.History.Len())
	}
}

// Resuming a snapshot against a different scenario must fail loudly.
func TestResumeSpecMismatchRejected(t *testing.T) {
	ctx := context.Background()
	be := &LocalBackend{}
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := be.Run(ctx, resumeSpec(20), WithCheckpointFile(path, 10)); err != nil {
		t.Fatal(err)
	}
	other := resumeSpec(20)
	other.Seed = 99
	if _, err := be.Run(ctx, other, WithResumeFile(path)); err == nil {
		t.Fatal("resume accepted a snapshot from a different spec")
	}
}

// The cluster backend's periodic snapshots capture the server state and the
// books; a resumed cluster run continues from the snapshot's step with the
// captured parameters, runs only the remaining rounds and keeps the whole
// run's ledger.
func TestClusterCheckpointResume(t *testing.T) {
	s := resumeSpec(20)
	ctx := context.Background()
	be := &ClusterBackend{}
	path := filepath.Join(t.TempDir(), "snap.json")

	full, err := be.Run(ctx, s, WithCheckpointFile(path, 10))
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 20 || st.Backend != "cluster" {
		t.Fatalf("final snapshot step %d backend %q", st.Step, st.Backend)
	}
	for i, p := range st.Params {
		if p != full.Params[i] {
			t.Fatalf("snapshot params diverge at %d", i)
		}
	}

	// Resuming the completed run's final snapshot is a no-op that returns
	// the finished parameters without binding a server.
	done, err := be.Run(ctx, s, WithResume(st))
	if err != nil {
		t.Fatal(err)
	}
	if done.History.Len() != 0 {
		t.Errorf("no-op cluster resume recorded %d rounds", done.History.Len())
	}
	for i := range full.Params {
		if done.Params[i] != full.Params[i] {
			t.Fatalf("no-op resume params diverge at %d", i)
		}
	}

	// A mid-run resume of a Spec with worker momentum, which no cluster
	// snapshot holds, is refused before any round runs.
	if _, err := be.Run(ctx, s, WithResume(snapshotAt(t, be, s, 10))); !errors.Is(err, ErrInexactResume) {
		t.Fatalf("worker-momentum cluster resume: error %v, want ErrInexactResume", err)
	}

	// Without worker momentum only the remaining rounds execute, and the
	// ledger spans the whole run.
	s.WorkerMomentum = 0
	res, err := be.Run(ctx, s, WithResume(snapshotAt(t, be, s, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 10 {
		t.Fatalf("resumed cluster run recorded %d rounds, want 10", res.History.Len())
	}
	if got := res.Cluster.Accepted + res.Cluster.Missed; got != s.GAR.N*20 {
		t.Fatalf("accounting %d, want %d", got, s.GAR.N*20)
	}
	if !allFinite(res.Params) {
		t.Fatal("resumed params not finite")
	}
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// parentSnapshotSpec is the Spec of testdata/snapshot_parent_indented.json:
// a 100-step staleness + membership run.
func parentSnapshotSpec() Spec {
	s := membershipSpec(100)
	s.Staleness = &StalenessSpec{Stragglers: 1, Late: "credit"}
	return s
}

// A store written before snapshots became compact still resumes. The fixture
// is the indented snapshot.json the parent commit's SaveRunState wrote at
// step 50 of parentSnapshotSpec (6fcc074, WithCheckpointFile(path, 50), run
// aborted at step 60). It must load, pass CheckSpec against today's compact
// Spec document, and resume to the uninterrupted run's exact end; saved
// again it comes out compact, equal, and well under the indented size.
// amd64-only, and within amd64 CPUs with AVX and FMA only: math.Exp in the
// model's sigmoid takes an FMA branch there (math/exp_amd64.go, useFMA) and
// rounds differently without it (ROADMAP rule (iv)).
func TestResumeParentIndentedSnapshot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture floats are pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	const fixture = "testdata/snapshot_parent_indented.json"
	ctx := context.Background()
	s := parentSnapshotSpec()

	st, err := checkpoint.LoadRunState(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 50 || st.Quorum == nil || st.Membership == nil {
		t.Fatalf("fixture at step %d (quorum %v, membership %v), want a step-50 staleness + membership snapshot",
			st.Step, st.Quorum != nil, st.Membership != nil)
	}
	specJSON, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckSpec("local", specJSON); err != nil {
		t.Fatal(err)
	}

	full, err := (&LocalBackend{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&LocalBackend{}).Run(ctx, s, WithResumeFile(fixture))
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Params {
		if resumed.Params[i] != full.Params[i] {
			t.Fatalf("param %d: resumed from the parent's snapshot %v != uninterrupted %v",
				i, resumed.Params[i], full.Params[i])
		}
	}
	if !reflect.DeepEqual(resumed.Cluster, full.Cluster) {
		t.Errorf("resumed ledger %+v != uninterrupted %+v", resumed.Cluster, full.Cluster)
	}
	for i := 0; i < resumed.History.Len(); i++ {
		if got, want := resumed.History.Record(i), full.History.Record(50+i); got.Step != want.Step || got.Loss != want.Loss {
			t.Fatalf("step %d: resumed loss %v != uninterrupted %v", want.Step, got.Loss, want.Loss)
		}
	}

	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := checkpoint.SaveRunState(path, st); err != nil {
		t.Fatal(err)
	}
	compact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compact, []byte("\n ")) {
		t.Error("re-saved snapshot is indented")
	}
	if 10*len(compact) >= 6*len(indented) {
		t.Errorf("re-saved snapshot is %d bytes, not under 60%% of the fixture's %d", len(compact), len(indented))
	}
	again, err := checkpoint.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded Spec document is the one field whose bytes changed.
	var specDoc bytes.Buffer
	if err := json.Compact(&specDoc, st.Spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Spec, specDoc.Bytes()) {
		t.Errorf("re-saved Spec document is not the fixture's, compacted:\n%s", again.Spec)
	}
	again.Spec, st.Spec = nil, nil
	if !reflect.DeepEqual(again, st) {
		t.Errorf("re-saved snapshot does not round-trip:\n%+v\n%+v", again, st)
	}
}
