package simulate

import (
	"context"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/vecmath"
)

// stalenessConfig is an attacked run with bounded-staleness quorum rounds:
// every delivery class (fresh, credited, duplicate-discarded, missed) occurs
// within a few steps.
func stalenessConfig(t *testing.T, stragglers int) Config {
	t.Helper()
	cfg := baseConfig(t, mustGAR(t, "trimmedmean", 7, 2))
	cfg.Attack = attack.NewSignFlip()
	cfg.Steps = 40
	cfg.Stragglers = stragglers
	return cfg
}

// The books must balance exactly: every (worker, round) pair is either
// accepted or missed, credited frames are a subset of accepted ones, and the
// synchronous path trivially accepts everything.
func TestStalenessAccountingBalances(t *testing.T) {
	for _, tc := range []struct {
		name        string
		stragglers  int
		lateDiscard bool
	}{
		{name: "synchronous", stragglers: 0},
		{name: "credit", stragglers: 2},
		{name: "discard", stragglers: 2, lateDiscard: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stalenessConfig(t, tc.stragglers)
			cfg.LateDiscard = tc.lateDiscard
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.GAR.N()
			if got, want := res.Accepted+res.Missed, n*cfg.Steps; got != want {
				t.Errorf("accepted %d + missed %d = %d, want exactly %d",
					res.Accepted, res.Missed, got, want)
			}
			if res.Credited > res.Accepted {
				t.Errorf("credited %d exceeds accepted %d", res.Credited, res.Accepted)
			}
			if tc.stragglers == 0 {
				if res.Missed != 0 || res.Discarded != 0 || res.Credited != 0 {
					t.Errorf("synchronous run recorded missed=%d discarded=%d credited=%d",
						res.Missed, res.Discarded, res.Credited)
				}
			} else {
				// Each round cuts at most Stragglers slots, and at least one
				// round misses someone.
				if res.Missed == 0 || res.Missed > tc.stragglers*cfg.Steps {
					t.Errorf("missed = %d outside (0, %d]", res.Missed, tc.stragglers*cfg.Steps)
				}
			}
			if tc.lateDiscard {
				if res.Credited != 0 {
					t.Errorf("LateDiscard credited %d frames", res.Credited)
				}
				if res.Discarded == 0 {
					t.Error("LateDiscard discarded nothing over 40 rounds")
				}
			}
			if tc.stragglers > 0 && !tc.lateDiscard && res.Credited == 0 {
				t.Error("credit policy credited nothing over 40 rounds")
			}
			if !vecmath.AllFinite(res.Params) {
				t.Error("final params not finite")
			}
		})
	}
}

// The straggler draw comes from a dedicated seed-derived stream, so quorum
// runs stay bit-reproducible and the seed moves the straggler schedule.
func TestStalenessDeterminism(t *testing.T) {
	run := func(seed uint64) *Result {
		cfg := stalenessConfig(t, 2)
		cfg.Seed = seed
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(1)
	if !vecmath.ApproxEqual(a.Params, b.Params, 0) {
		t.Error("two quorum runs with the same seed differ")
	}
	if a.Accepted != b.Accepted || a.Missed != b.Missed ||
		a.Discarded != b.Discarded || a.Credited != b.Credited {
		t.Errorf("accounting not deterministic: %+v vs %+v", a, b)
	}
	d := run(2)
	if vecmath.ApproxEqual(a.Params, d.Params, 0) {
		t.Error("different seeds produced identical quorum trajectories")
	}
}

// The staleness policy is load-bearing: credited late frames produce a
// different trajectory than discarded ones, and both differ from the fully
// synchronous run.
func TestStalenessPolicyChangesTrajectory(t *testing.T) {
	sync := func() *Result {
		res, err := Run(context.Background(), stalenessConfig(t, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	credit := func() *Result {
		res, err := Run(context.Background(), stalenessConfig(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	discard := func() *Result {
		cfg := stalenessConfig(t, 2)
		cfg.LateDiscard = true
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if vecmath.ApproxEqual(sync.Params, credit.Params, 0) {
		t.Error("quorum run bit-identical to synchronous run")
	}
	if vecmath.ApproxEqual(credit.Params, discard.Params, 0) {
		t.Error("credit and discard policies produced identical trajectories")
	}
}

// A quorum run interrupted mid-flight must resume bit-identically: the
// snapshot carries the straggler stream position, every in-flight frame and
// the accounting so far.
func TestStalenessResumeBitIdentical(t *testing.T) {
	const resumeAt = 17 // odd cadence so in-flight frames are likely live
	mk := func() Config {
		cfg := stalenessConfig(t, 2)
		cfg.WorkerMomentum = 0.9
		cfg.Momentum = 0
		return cfg
	}

	full, err := Run(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}

	var snap *checkpoint.RunState
	cfg := mk()
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
	if snap.Quorum == nil {
		t.Fatal("quorum snapshot carries no quorum state")
	}
	if snap.Membership == nil {
		t.Fatal("quorum snapshot carries no epoch books")
	}
	booked := 0
	for _, e := range snap.Membership.Epochs {
		booked += e.Accepted + e.Missed
	}
	if booked != mk().GAR.N()*resumeAt {
		t.Fatalf("snapshot accounting %d, want %d", booked, mk().GAR.N()*resumeAt)
	}
	inFlight := 0
	for _, ws := range snap.Workers {
		if ws.Stale != nil {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("snapshot carries no in-flight frames (stragglers = 2 every round)")
	}

	resumedCfg := mk()
	resumedCfg.Resume = snap
	resumed, err := Run(context.Background(), resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.ApproxEqual(resumed.Params, full.Params, 0) {
		t.Error("resumed quorum run not bit-identical to the uninterrupted run")
	}
	if resumed.Accepted != full.Accepted || resumed.Missed != full.Missed ||
		resumed.Discarded != full.Discarded || resumed.Credited != full.Credited {
		t.Errorf("resumed accounting (%d/%d/%d/%d) != full (%d/%d/%d/%d)",
			resumed.Accepted, resumed.Missed, resumed.Discarded, resumed.Credited,
			full.Accepted, full.Missed, full.Discarded, full.Credited)
	}
}

// A snapshot with staleness state must not silently resume onto a
// synchronous scenario, and vice versa.
func TestStalenessResumeMismatchRejected(t *testing.T) {
	var snap *checkpoint.RunState
	cfg := stalenessConfig(t, 2)
	cfg.SnapshotEvery = 20
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

	onto := stalenessConfig(t, 0)
	onto.Resume = snap
	if _, err := Run(context.Background(), onto); err == nil {
		t.Error("quorum snapshot resumed onto a synchronous run")
	}

	// The converse: a synchronous snapshot fed to a quorum scenario.
	var syncSnap *checkpoint.RunState
	syncCfg := stalenessConfig(t, 0)
	syncCfg.SnapshotEvery = 20
	syncCfg.SnapshotFunc = func(st *checkpoint.RunState) error {
		if syncSnap == nil {
			syncSnap = st
		}
		return nil
	}
	if _, err := Run(context.Background(), syncCfg); err != nil {
		t.Fatal(err)
	}
	back := stalenessConfig(t, 2)
	back.Resume = syncSnap
	if _, err := Run(context.Background(), back); err == nil {
		t.Error("staleness-free snapshot resumed onto a quorum run")
	}
}

// Straggler counts must stay below n: cutting every worker would leave the
// GAR nothing to aggregate.
func TestStalenessValidation(t *testing.T) {
	cfg := stalenessConfig(t, 0)
	cfg.Stragglers = cfg.GAR.N()
	if err := cfg.Validate(); err == nil {
		t.Error("stragglers == n accepted")
	}
	cfg.Stragglers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative stragglers accepted")
	}
}
