package spec

import (
	"context"
	"strings"
	"testing"

	"dpbyz/internal/checkpoint"
)

// A snapshot that cannot belong to the run is rejected by both backends,
// and by the same check: the server half of a RunState is restored in one
// place (round.Committer.Restore) whichever loop resumes.
func TestResumeRejectedOnBothBackends(t *testing.T) {
	ctx := context.Background()
	s := resumeSpec(10)
	var snap *checkpoint.RunState
	if _, err := (&LocalBackend{}).Run(ctx, s, WithSnapshotFunc(func(st *checkpoint.RunState) error {
		if st.Step == 5 {
			snap = st
		}
		return nil
	}, 5)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*checkpoint.RunState)
		want   string
	}{
		{"wrong params dim", func(st *checkpoint.RunState) {
			st.Params, st.Velocity = append(st.Params, 0), append(st.Velocity, 0)
		}, "resume params dim 12, model dim 11"},
		{"step beyond steps", func(st *checkpoint.RunState) { st.Step = 11 }, "resume step 11 beyond configured steps 10"},
		{"velocity length", func(st *checkpoint.RunState) { st.Velocity = st.Velocity[:3] }, "velocity dim 3, params dim 11"},
	} {
		for _, be := range []Backend{&LocalBackend{}, &ClusterBackend{}} {
			// The server half only, unbound from its backend and Spec: the
			// restore checks are all that stand between it and the run.
			st := checkpoint.RunState{
				Version:  snap.Version,
				Step:     snap.Step,
				Params:   append([]float64(nil), snap.Params...),
				Velocity: append([]float64(nil), snap.Velocity...),
			}
			tc.mutate(&st)
			_, err := be.Run(ctx, s, WithResume(&st))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %s: error %v, want one naming %q", tc.name, be.Name(), err, tc.want)
			}
		}
	}
}

// A local snapshot whose membership state describes another cohort must not
// resume. The rewrite below keeps every epoch balanced, so
// checkpoint.Validate passes it; only the slot table, which checks each
// book against the configured population, can tell the books are foreign.
func TestLocalResumeRejectsForeignCohort(t *testing.T) {
	ctx := context.Background()
	s := trajectorySpecs()["membership"]
	var snap *checkpoint.RunState
	if _, err := (&LocalBackend{}).Run(ctx, s, WithSnapshotFunc(func(st *checkpoint.RunState) error {
		if st.Step == trajectoryResumeAt {
			snap = st
		}
		return nil
	}, trajectoryResumeAt)); err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Membership == nil {
		t.Fatalf("no membership snapshot at step %d", trajectoryResumeAt)
	}
	six := []int{0, 1, 2, 3, 4, 5}
	m := snap.Membership
	m.Streaks = m.Streaks[:len(six)]
	for i := range m.Epochs {
		e := &m.Epochs[i]
		e.N, e.View, e.Accepted, e.Missed = len(six), six, len(six)*e.Rounds, 0
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("rewritten snapshot must pass Validate: %v", err)
	}
	_, err := (&LocalBackend{}).Run(ctx, s, WithResume(snap))
	if want := "book of epoch 0 (n=6 f=2 rounds 7 view [0 1 2 3 4 5]) does not fit"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("foreign cohort resumed: error %v, want one naming %q", err, want)
	}
}
