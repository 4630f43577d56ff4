package spec

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/cluster"
)

// snapshotAt runs s on b and returns its snapshot after step k.
func snapshotAt(t *testing.T, b Backend, s Spec, k int) *checkpoint.RunState {
	t.Helper()
	var snap *checkpoint.RunState
	if _, err := b.Run(context.Background(), s, WithSnapshotFunc(func(st *checkpoint.RunState) error {
		if st.Step == k {
			snap = st
		}
		return nil
	}, k)); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("no snapshot at step %d", k)
	}
	return snap
}

// A cluster snapshot carries the colluding adversary's attack half, so on
// the plain trajectory Spec (a fixed, synchronous cohort) a ClusterBackend
// run resumed at step trajectoryResumeAt ends on the uninterrupted run's
// params and ledger for every registered attack, stateful or drawing from
// the attack stream alike. A newly registered attack is covered here.
func TestClusterResumeEveryAttack(t *testing.T) {
	ctx := context.Background()
	for _, name := range attack.Names() {
		t.Run(name, func(t *testing.T) {
			s := trajectorySpecs()["plain"]
			s.Attack = &AttackSpec{Name: name}
			full, err := (&ClusterBackend{}).Run(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotAt(t, &ClusterBackend{}, s, trajectoryResumeAt)
			resumed, err := (&ClusterBackend{}).Run(ctx, s, WithResume(snap))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pinOf(resumed), pinOf(full); got != want {
				t.Errorf("resumed %#v, uninterrupted %#v", got, want)
			}
		})
	}
}

// Worker momentum lives in the worker processes and in no cluster snapshot,
// so both cluster entry points refuse to resume such a Spec mid-run, by
// name and before any round runs.
func TestClusterResumeRefusesWorkerMomentum(t *testing.T) {
	ctx := context.Background()
	s := trajectorySpecs()["momentumPostNoise"]
	snap := snapshotAt(t, &ClusterBackend{}, s, trajectoryResumeAt)
	sink := NewHistorySink()
	count := WithObserver(sink)
	if _, err := (&ClusterBackend{}).Run(ctx, s, WithResume(snap), count); !errors.Is(err, ErrInexactResume) {
		t.Errorf("ClusterBackend: error %v, want ErrInexactResume", err)
	}
	serve := []Option{WithResume(snap), count, WithTransport(cluster.NewChanTransport()), WithAddr("serve")}
	if _, err := ServeSpec(ctx, s, serve...); !errors.Is(err, ErrInexactResume) {
		t.Errorf("ServeSpec: error %v, want ErrInexactResume", err)
	}
	if n := sink.History().Len(); n != 0 {
		t.Errorf("a refused resume ran %d rounds", n)
	}
}

// A damaged snapshot fails closed, through the loader and the resume
// option of both backends, with a named error: a file truncated anywhere is
// ErrUndecodable, and a whole snapshot of another run's Spec is
// ErrSpecMismatch. A flipped bit inside a number still decodes; catching it
// needs a checksum the schema does not have.
func TestDamagedSnapshotsFailClosed(t *testing.T) {
	ctx := context.Background()
	s := trajectorySpecs()["plain"]
	other := s
	other.Seed++
	specJSON, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, b := range []Backend{&LocalBackend{}, &ClusterBackend{}} {
		t.Run(b.Name(), func(t *testing.T) {
			path := filepath.Join(dir, b.Name()+".json")
			if _, err := b.Run(ctx, other, WithCheckpointFile(path, trajectoryResumeAt)); err != nil {
				t.Fatal(err)
			}
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fail := func(name, file string, want error) {
				t.Helper()
				st, err := checkpoint.LoadRunState(file)
				if err == nil {
					err = st.CheckSpec(b.Name(), specJSON)
				}
				if !errors.Is(err, want) {
					t.Errorf("%s: LoadRunState + CheckSpec error %v, want %v", name, err, want)
				}
				if _, err := b.Run(ctx, s, WithResumeFile(file)); !errors.Is(err, want) {
					t.Errorf("%s: WithResumeFile error %v, want %v", name, err, want)
				}
			}
			for _, cut := range []int{0, 1, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
				file := filepath.Join(dir, "truncated.json")
				if err := os.WriteFile(file, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				fail("truncated", file, checkpoint.ErrUndecodable)
			}
			fail("another run's snapshot", path, checkpoint.ErrSpecMismatch)
		})
	}
}

// A snapshot without epoch books — every cluster snapshot and every
// fixed-cohort local one written before snapshots carried them — still
// resumes on both backends, with the ledger those snapshots always had: the
// resumed run opens a fresh epoch at the snapshot step and counts only its
// own rounds (12 × 7 = 84 of the membership Spec's 140), on the
// uninterrupted run's params.
func TestBooklessSnapshotResumesSegmentLedger(t *testing.T) {
	ctx := context.Background()
	s := trajectorySpecs()["membership"]
	for _, b := range []Backend{&LocalBackend{}, &ClusterBackend{}} {
		full, err := b.Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		snap := snapshotAt(t, b, s, trajectoryResumeAt)
		snap.Membership = nil
		resumed, err := b.Run(ctx, s, WithResume(snap))
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		got, want := pinOf(resumed), pinOf(full)
		if got.params != want.params || got.ledger != [4]int{84, 0, 0, 0} {
			t.Errorf("%s: bookless resume %#v, want params %#016x and ledger [84 0 0 0]", b.Name(), got, want.params)
		}
	}
}

// A cluster snapshot carries the two run counters the epoch books do not
// hold, Discarded and Credited, and a resumed server continues them; they
// used to restart at zero. A completed quorum+credit run is resumed from its
// final snapshot (step == Steps, so no round runs and no cut makes the
// result timing-dependent): the result is the uninterrupted ledger with the
// snapshot's counters. Credited is the run's; Discarded is at most the
// run's, because the connection readers still turn frames away (floods past
// a worker's buffer depth) between the final commit and the server's
// shutdown, after the snapshot. A loaded box can cut so that nothing is
// credited, so the resume also runs with made-up non-zero counters to keep
// the check from going vacuous.
func TestClusterResumeKeepsRunCounters(t *testing.T) {
	ctx := context.Background()
	s := trajectorySpecs()["quorum+credit"]
	var final *checkpoint.RunState
	full, err := (&ClusterBackend{}).Run(ctx, s, WithSnapshotFunc(func(st *checkpoint.RunState) error {
		final = st
		return nil
	}, s.Steps))
	if err != nil {
		t.Fatal(err)
	}
	if q := final.Quorum; q == nil || q.Credited != full.Cluster.Credited || q.Discarded != full.Cluster.Discarded {
		t.Fatalf("final snapshot counters %+v, run ledger %+v", q, *full.Cluster)
	}
	for _, q := range []checkpoint.QuorumRunState{*final.Quorum, {Discarded: 7, Credited: 3}} {
		st := *final
		st.Quorum = &q
		resumed, err := (&ClusterBackend{}).Run(ctx, s, WithResume(&st))
		if err != nil {
			t.Fatal(err)
		}
		want := *full.Cluster
		want.WorkerRounds = nil // the completed resume starts no worker
		want.Discarded, want.Credited = q.Discarded, q.Credited
		if got := *resumed.Cluster; !reflect.DeepEqual(got, want) {
			t.Errorf("resumed from counters %+v: ledger %+v, want %+v", q, got, want)
		}
	}
}
