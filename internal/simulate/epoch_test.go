package simulate

import (
	"context"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/vecmath"
)

// epochConfig is an attacked (7, 2) run partitioned into 5-round epochs.
// FRatio 0.3 derives ⌊0.3·7⌋ = 2, matching the declared GAR.
func epochConfig(t *testing.T, steps int) Config {
	t.Helper()
	cfg := baseConfig(t, mustGAR(t, "trimmedmean", 7, 2))
	cfg.Attack = attack.NewSignFlip()
	cfg.Steps = steps
	cfg.Epochs = &EpochConfig{
		EpochRounds: 5,
		FRatio:      0.3,
		NewGAR: func(n, f int) (gar.GAR, error) {
			return gar.New("trimmedmean", n, f)
		},
	}
	return cfg
}

// An epoched run on the fixed local cohort keeps exact per-epoch ledgers:
// every epoch holds (n=7, f=2), full epochs span exactly EpochRounds rounds,
// and the books balance per epoch and in total.
func TestEpochLedgerExact(t *testing.T) {
	const steps = 20 // 4 full epochs of 5 rounds
	res, err := Run(context.Background(), epochConfig(t, steps))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Epochs), 4; got != want {
		t.Fatalf("recorded %d epochs, want %d: %+v", got, want, res.Epochs)
	}
	for i, st := range res.Epochs {
		if st.Epoch != i || st.N != 7 || st.F != 2 || st.Rounds != 5 {
			t.Errorf("epoch %d ledger %+v, want {Epoch:%d N:7 F:2 Rounds:5}", i, st, i)
		}
		if st.Accepted != 35 || st.Missed != 0 {
			t.Errorf("synchronous epoch %d books %d+%d, want 35+0", i, st.Accepted, st.Missed)
		}
	}
	if err := membership.BalanceEpochs(res.Epochs); err != nil {
		t.Error(err)
	}
	// A trailing partial epoch still balances.
	res, err = Run(context.Background(), epochConfig(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Epochs); got != 5 {
		t.Fatalf("recorded %d epochs for 23 steps, want 5", got)
	}
	if last := res.Epochs[4]; last.Rounds != 3 || last.Accepted != 21 {
		t.Errorf("partial epoch ledger %+v, want {Rounds:3 Accepted:21}", last)
	}
	if err := membership.BalanceEpochs(res.Epochs); err != nil {
		t.Error(err)
	}
}

// With a fixed cohort the per-epoch re-materialization rebuilds an
// equivalent rule every boundary, so the epoched trajectory is bit-identical
// to the plain run's — the mirror changes bookkeeping, never the math.
func TestEpochTrajectoryMatchesPlainRun(t *testing.T) {
	epoched, err := Run(context.Background(), epochConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	plain := epochConfig(t, 20)
	plain.Epochs = nil
	flat, err := Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(epoched.Params, flat.Params, 0) {
		t.Error("epoched run diverged from the plain run on a fixed cohort")
	}
	if flat.Epochs != nil {
		t.Error("plain run recorded epoch ledgers")
	}
}

// Epochs compose with bounded staleness: the per-epoch books absorb the
// quorum cuts and still balance exactly.
func TestEpochWithStragglersBalances(t *testing.T) {
	cfg := epochConfig(t, 20)
	cfg.Stragglers = 2
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.BalanceEpochs(res.Epochs); err != nil {
		t.Error(err)
	}
	if res.Missed == 0 {
		t.Error("straggler run missed nothing")
	}
	var acc, miss int
	for _, st := range res.Epochs {
		acc += st.Accepted
		miss += st.Missed
	}
	if acc != res.Accepted || miss != res.Missed {
		t.Errorf("epoch ledgers sum to %d+%d, run totals %d+%d",
			acc, miss, res.Accepted, res.Missed)
	}
}

// A run interrupted mid-epoch resumes bit-identically: the snapshot carries
// the epoch position and the partial ledger, and the resumed segment
// re-enters the interrupted epoch instead of opening a fresh one.
func TestEpochResumeBitIdentical(t *testing.T) {
	const steps, resumeAt = 20, 7 // mid epoch 1
	full, err := Run(context.Background(), epochConfig(t, steps))
	if err != nil {
		t.Fatal(err)
	}

	var snap *checkpoint.RunState
	cfg := epochConfig(t, steps)
	cfg.SnapshotEvery = resumeAt
	cfg.SnapshotFunc = func(st *checkpoint.RunState) error {
		if st.Step == resumeAt {
			snap = st
		}
		return nil
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("no snapshot captured at step %d", resumeAt)
	}
	m := snap.Membership
	if m == nil {
		t.Fatal("epoched snapshot carries no membership state")
	}
	last := m.Epochs[len(m.Epochs)-1]
	if last.Epoch != 1 || last.F != 2 || len(last.View) != 7 {
		t.Fatalf("snapshot's open epoch %+v, want epoch 1, f 2, 7-member view", last)
	}
	if last.Rounds != 2 {
		t.Fatalf("partial epoch in snapshot has %d rounds, want 2", last.Rounds)
	}

	resumedCfg := epochConfig(t, steps)
	resumedCfg.Resume = snap
	resumed, err := Run(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(resumed.Params, full.Params, 0) {
		t.Error("resumed epoched run not bit-identical to the uninterrupted run")
	}
	if len(resumed.Epochs) != len(full.Epochs) {
		t.Fatalf("resumed run recorded %d epochs, full run %d",
			len(resumed.Epochs), len(full.Epochs))
	}
	for i := range full.Epochs {
		a, b := resumed.Epochs[i], full.Epochs[i]
		if a.Epoch != b.Epoch || a.N != b.N || a.F != b.F || a.Rounds != b.Rounds ||
			a.Accepted != b.Accepted || a.Missed != b.Missed {
			t.Errorf("epoch %d ledger diverged across resume: %+v vs %+v", i, a, b)
		}
	}
}

// Epoch state must travel with the snapshot in both directions: an epoched
// snapshot cannot resume a plain run, and a plain snapshot cannot resume an
// epoched one.
func TestEpochResumeMismatchRejected(t *testing.T) {
	capture := func(cfg Config) *checkpoint.RunState {
		var snap *checkpoint.RunState
		cfg.SnapshotEvery = 10
		cfg.SnapshotFunc = func(st *checkpoint.RunState) error {
			if snap == nil {
				snap = st
			}
			return nil
		}
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatal("no snapshot captured")
		}
		return snap
	}

	epochSnap := capture(epochConfig(t, 20))
	onto := epochConfig(t, 20)
	onto.Epochs = nil
	onto.Resume = epochSnap
	if _, err := Run(context.Background(), onto); err == nil {
		t.Error("epoched snapshot resumed onto a plain run")
	}

	plain := epochConfig(t, 20)
	plain.Epochs = nil
	back := epochConfig(t, 20)
	back.Resume = capture(plain)
	if _, err := Run(context.Background(), back); err == nil {
		t.Error("plain snapshot resumed onto an epoched run")
	}
}

// The epoch axis is validated up front, including the FRatio-vs-GAR
// consistency that keeps the local mirror honest about its threat model.
func TestEpochValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero epoch rounds", func(c *Config) { c.Epochs.EpochRounds = 0 }},
		{"f ratio at half", func(c *Config) { c.Epochs.FRatio = 0.5 }},
		{"negative f ratio", func(c *Config) { c.Epochs.FRatio = -0.1 }},
		{"nil factory", func(c *Config) { c.Epochs.NewGAR = nil }},
		{"f ratio inconsistent with gar", func(c *Config) { c.Epochs.FRatio = 0.1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := epochConfig(t, 20)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid epoch config accepted")
			}
		})
	}
	// A factory that builds the wrong shape is caught at the boundary.
	cfg := epochConfig(t, 20)
	cfg.Epochs.NewGAR = func(n, f int) (gar.GAR, error) {
		return gar.New("trimmedmean", n+2, f)
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("factory building a mis-sized rule accepted")
	}
}
