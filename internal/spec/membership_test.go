package spec

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/membership"
	"dpbyz/internal/vecmath"
)

// membershipSpec is resumeSpec plus the epoched-membership axis: a (7, 2)
// cohort in 5-round epochs, fRatio 0.3 deriving ⌊0.3·7⌋ = 2 = gar.f.
func membershipSpec(steps int) Spec {
	s := resumeSpec(steps)
	s.Membership = &MembershipSpec{
		MinWorkers: 5, MaxWorkers: 8, FRatio: 0.3, EpochRounds: 5,
	}
	return s
}

func TestMembershipSpecValidation(t *testing.T) {
	valid := membershipSpec(20)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid membership spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"fRatio inconsistent with gar.f": func(s *Spec) { s.Membership.FRatio = 0.1 },
		"fRatio at half":                 func(s *Spec) { s.Membership.FRatio = 0.5 },
		"zero epoch rounds":              func(s *Spec) { s.Membership.EpochRounds = 0 },
		"max below min":                  func(s *Spec) { s.Membership.MaxWorkers = 4 },
		"gar.n below minWorkers":         func(s *Spec) { s.Membership.MinWorkers = 8 },
		"gar.n above maxWorkers":         func(s *Spec) { s.Membership.MaxWorkers = 6 },
		"zero minWorkers":                func(s *Spec) { s.Membership.MinWorkers = 0 },
	} {
		s := membershipSpec(20)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A membership Spec on the local backend mirrors the cluster's epoch
// scheduling on its fixed cohort: exact per-epoch ledgers that balance.
func TestMembershipLocalRun(t *testing.T) {
	const steps = 12 // 2 full epochs + a 2-round partial
	res, err := (&LocalBackend{}).Run(context.Background(), membershipSpec(steps))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster == nil {
		t.Fatal("membership run surfaced no cluster stats")
	}
	epochs := res.Cluster.Epochs
	if len(epochs) != 3 {
		t.Fatalf("recorded %d epochs, want 3: %+v", len(epochs), epochs)
	}
	for i, st := range epochs {
		if st.Epoch != i || st.N != 7 || st.F != 2 {
			t.Errorf("epoch %d ledger %+v, want {Epoch:%d N:7 F:2}", i, st, i)
		}
	}
	if got := epochs[2].Rounds; got != 2 {
		t.Errorf("partial epoch spans %d rounds, want 2", got)
	}
	if err := membership.BalanceEpochs(epochs); err != nil {
		t.Error(err)
	}
}

// A membership run interrupted mid-epoch resumes bit-identically from its
// snapshot: the RunState carries the membership view and epoch counters.
func TestMembershipResumeBitIdentical(t *testing.T) {
	const (
		steps   = 20
		every   = 7 // snapshots at 7 (mid epoch 1) and 14 (mid epoch 2)
		abortAt = 11
	)
	ctx := context.Background()
	be := &LocalBackend{}

	full, err := be.Run(ctx, membershipSpec(steps))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "snap.json")
	_, err = be.Run(ctx, membershipSpec(steps),
		WithCheckpointFile(path, every),
		WithObserver(&abortAfter{step: abortAt}))
	if !errors.Is(err, errAborted) {
		t.Fatalf("interrupted run returned %v, want the observer's abort", err)
	}

	st, err := checkpoint.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != every {
		t.Fatalf("snapshot at step %d, want %d", st.Step, every)
	}
	if st.Membership == nil {
		t.Fatal("membership snapshot carries no membership state")
	}
	if open := st.Membership.Epochs[len(st.Membership.Epochs)-1]; open.Epoch != 1 || len(open.View) != 7 {
		t.Fatalf("snapshot's open epoch %+v, want epoch 1 with a 7-member view", open)
	}

	resumed, err := be.Run(ctx, membershipSpec(steps), WithResumeFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(resumed.Params, full.Params, 0) {
		t.Error("resumed membership run not bit-identical to the uninterrupted run")
	}
	if err := membership.BalanceEpochs(resumed.Cluster.Epochs); err != nil {
		t.Error(err)
	}
}

// Resume must not cross membership scenarios: a snapshot written under one
// MembershipSpec is rejected by a spec with a different one (or none) — the
// full-spec comparison in CheckSpec catches the drift before any state loads.
func TestMembershipCrossSpecResumeRejected(t *testing.T) {
	ctx := context.Background()
	be := &LocalBackend{}
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := be.Run(ctx, membershipSpec(20), WithCheckpointFile(path, 7)); err != nil {
		t.Fatal(err)
	}

	other := membershipSpec(20)
	other.Membership.EpochRounds = 4
	if _, err := be.Run(ctx, other, WithResumeFile(path)); err == nil {
		t.Error("snapshot resumed under a different MembershipSpec")
	}

	plain := membershipSpec(20)
	plain.Membership = nil
	if _, err := be.Run(ctx, plain, WithResumeFile(path)); err == nil {
		t.Error("membership snapshot resumed onto a membership-free spec")
	}
}

// The same membership Spec drives the networked backend: the server runs in
// epoched mode, re-deriving the view and the GAR per epoch, and the books
// balance exactly across the full cohort.
func TestMembershipClusterRun(t *testing.T) {
	s := membershipSpec(12)
	// Pin the cohort: with MinWorkers == gar.n the run starts only once all
	// 7 workers joined, so every epoch's ledger is deterministic.
	s.Membership.MinWorkers = 7
	s.Membership.MaxWorkers = 7
	res, err := (&ClusterBackend{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster == nil || len(res.Cluster.Epochs) == 0 {
		t.Fatal("cluster membership run surfaced no epoch ledgers")
	}
	slots := 0
	for _, st := range res.Cluster.Epochs {
		if st.N != 7 || st.F != 2 {
			t.Errorf("epoch %d has (n, f) = (%d, %d), want (7, 2)", st.Epoch, st.N, st.F)
		}
		slots += st.N * st.Rounds
	}
	if err := membership.BalanceEpochs(res.Cluster.Epochs); err != nil {
		t.Error(err)
	}
	if got := res.Cluster.Accepted + res.Cluster.Missed; got != slots {
		t.Errorf("accepted %d + missed %d != %d epoch slots",
			res.Cluster.Accepted, res.Cluster.Missed, slots)
	}
	if res.History.Len() != 12 {
		t.Errorf("history has %d rounds, want 12", res.History.Len())
	}
}
