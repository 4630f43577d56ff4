package round

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/randx"
)

// refUpdate is the momentum update both round loops wrote inline before the
// Committer existed (simulate's runner.step and cluster's Server.Run, equal
// up to where the rate came from). It is the oracle Commit must match bit
// for bit.
func refUpdate(w, velocity, agg []float64, momentum, lr float64) {
	for i := range velocity {
		velocity[i] = momentum*velocity[i] + agg[i]
		w[i] -= lr * velocity[i]
	}
}

// refSnapshotSteps is the snapshot cadence both loops wrote inline: the
// completed-step counts a run from start to steps snapshots at.
func refSnapshotSteps(start, every, steps int) []int {
	var out []int
	for step := start; step < steps; step++ {
		if (step+1)%every == 0 || step == steps-1 {
			out = append(out, step+1)
		}
	}
	return out
}

func nanRecord(step int, _, _ []float64) metrics.StepRecord {
	return metrics.StepRecord{Step: step, Loss: 0, Accuracy: math.NaN(), VNRatio: math.NaN()}
}

func mustNew(t *testing.T, cfg Config) *Committer {
	t.Helper()
	if cfg.Measure == nil {
		cfg.Measure = nanRecord
	}
	if cfg.Rate == nil {
		cfg.Rate = func(int) float64 { return 0.5 }
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCommitMatchesInlineUpdate(t *testing.T) {
	const (
		dim   = 37
		steps = 60
	)
	rates := map[string]func(int) float64{
		"constant":    func(int) float64 { return 0.7 },
		"inverseTime": func(step int) float64 { return 3 / float64(step+1) },
	}
	for _, mu := range []float64{0, 0.9, 0.99} {
		for name, rate := range rates {
			t.Run(fmt.Sprintf("mu=%v/%s", mu, name), func(t *testing.T) {
				rng := randx.New(uint64(1000*mu) + 7)
				init := make([]float64, dim)
				for i := range init {
					init[i] = rng.Normal()
				}
				c := mustNew(t, Config{Name: "t", Unit: "step", Dim: dim, Steps: steps,
					Momentum: mu, Rate: rate, InitParams: init})
				w := append([]float64(nil), init...)
				v := make([]float64, dim)
				agg := make([]float64, dim)
				for step := 0; step < steps; step++ {
					for i := range agg {
						agg[i] = rng.Normal() * 1e-2
					}
					refUpdate(w, v, agg, mu, rate(step))
					if err := c.Commit(step, agg); err != nil {
						t.Fatal(err)
					}
					for i := range w {
						if math.Float64bits(c.Params()[i]) != math.Float64bits(w[i]) ||
							math.Float64bits(c.Velocity()[i]) != math.Float64bits(v[i]) {
							t.Fatalf("step %d coord %d: (w, v) = (%v, %v), inline (%v, %v)",
								step, i, c.Params()[i], c.Velocity()[i], w[i], v[i])
						}
					}
				}
				if c.History().Len() != steps {
					t.Errorf("history has %d records, want %d", c.History().Len(), steps)
				}
			})
		}
	}
}

// resumeAt is a valid snapshot of a dim-d run after step completed steps.
func resumeAt(step, d int) *checkpoint.RunState {
	st := &checkpoint.RunState{Version: checkpoint.RunStateVersion, Step: step,
		Params: make([]float64, d), Velocity: make([]float64, d)}
	for i := range st.Params {
		st.Params[i], st.Velocity[i] = float64(i), -float64(i)
	}
	return st
}

func TestSnapshotCadenceMatchesInline(t *testing.T) {
	for _, tc := range []struct{ start, every, steps int }{
		{0, 1, 5}, {0, 3, 10}, {0, 5, 10}, {0, 7, 5}, {0, 10, 10},
		{4, 3, 10}, {3, 1, 6}, {2, 50, 9}, {9, 4, 10}, {6, 6, 6},
	} {
		t.Run(fmt.Sprintf("start=%d/every=%d/steps=%d", tc.start, tc.every, tc.steps), func(t *testing.T) {
			var got []int
			var hooked int
			cfg := Config{Name: "t", Unit: "step", Dim: 3, Steps: tc.steps,
				SnapshotEvery: tc.every,
				Hook: func(metrics.StepRecord, []float64) error {
					hooked++
					return nil
				},
				SnapshotFunc: func(st *checkpoint.RunState) error {
					// Hook before snapshot: the step's hook has already run.
					if hooked != st.Step-tc.start {
						t.Errorf("snapshot at %d after %d hooks, want %d", st.Step, hooked, st.Step-tc.start)
					}
					got = append(got, st.Step)
					return nil
				},
			}
			if tc.start > 0 {
				cfg.Resume = resumeAt(tc.start, 3)
			}
			c := mustNew(t, cfg)
			if c.Start() != tc.start {
				t.Fatalf("start %d, want %d", c.Start(), tc.start)
			}
			agg := []float64{1, 2, 3}
			for step := c.Start(); step < tc.steps; step++ {
				if err := c.Commit(step, agg); err != nil {
					t.Fatal(err)
				}
			}
			if want := refSnapshotSteps(tc.start, tc.every, tc.steps); !reflect.DeepEqual(got, want) {
				t.Errorf("snapshots at %v, inline cadence %v", got, want)
			}
		})
	}
}

func TestSnapshotsOffWithoutCadence(t *testing.T) {
	called := false
	c := mustNew(t, Config{Name: "t", Unit: "step", Dim: 1, Steps: 3,
		SnapshotFunc: func(*checkpoint.RunState) error { called = true; return nil }})
	for step := 0; step < 3; step++ {
		if err := c.Commit(step, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Cancel(3, context.Canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error %v", err)
	}
	if called {
		t.Error("SnapshotEvery = 0 still snapshotted")
	}
}

// Cancelling after k completed steps flushes one snapshot of exactly that
// prefix — the live w and velocity, copied — and wraps the cause the way
// both loops did.
func TestCancelFlushesCompletedPrefix(t *testing.T) {
	const k = 4
	var flushed []*checkpoint.RunState
	extended := 0
	c := mustNew(t, Config{Name: "cluster", Unit: "round", Dim: 2, Steps: 100, Momentum: 0.9,
		SnapshotEvery: 1000,
		SnapshotFunc: func(st *checkpoint.RunState) error {
			flushed = append(flushed, st)
			return nil
		},
		Extend: func(*checkpoint.RunState) { extended++ },
	})
	for step := 0; step < k; step++ {
		if err := c.Commit(step, []float64{1, -1}); err != nil {
			t.Fatal(err)
		}
	}
	err := c.Cancel(k, context.Canceled)
	if !errors.Is(err, context.Canceled) || err.Error() != "cluster: round 4: context canceled" {
		t.Fatalf("cancel error %q", err)
	}
	if len(flushed) != 1 || extended != 1 {
		t.Fatalf("%d flushes, %d extensions, want 1 each", len(flushed), extended)
	}
	st := flushed[0]
	if st.Step != k || st.Version != checkpoint.RunStateVersion {
		t.Fatalf("flushed step %d version %d", st.Step, st.Version)
	}
	if !reflect.DeepEqual(st.Params, c.Params()) || !reflect.DeepEqual(st.Velocity, c.Velocity()) {
		t.Fatal("flushed state is not the live state")
	}
	st.Params[0] = 42
	if c.Params()[0] == 42 {
		t.Fatal("snapshot aliases the live parameters")
	}

	errFlush := errors.New("disk full")
	c = mustNew(t, Config{Name: "simulate", Unit: "step", Dim: 1, Steps: 10, SnapshotEvery: 3,
		SnapshotFunc: func(*checkpoint.RunState) error { return errFlush }})
	err = c.Cancel(0, context.Canceled)
	if !errors.Is(err, errFlush) || errors.Is(err, context.Canceled) ||
		err.Error() != "simulate: step 0: context canceled (final snapshot: disk full)" {
		t.Fatalf("failed flush error %q", err)
	}
}

func TestCommitErrorsWrapLikeTheLoops(t *testing.T) {
	errHook := errors.New("observer failed")
	errSave := errors.New("disk full")
	c := mustNew(t, Config{Name: "simulate", Unit: "step", Dim: 1, Steps: 10,
		Hook: func(rec metrics.StepRecord, _ []float64) error {
			if rec.Step == 2 {
				return errHook
			}
			return nil
		}})
	var err error
	for step := 0; err == nil; step++ {
		err = c.Commit(step, []float64{1})
	}
	if !errors.Is(err, errHook) || err.Error() != "simulate: step 2 hook: observer failed" {
		t.Errorf("hook error %q", err)
	}

	c = mustNew(t, Config{Name: "cluster", Unit: "round", Dim: 1, Steps: 10, SnapshotEvery: 2,
		SnapshotFunc: func(*checkpoint.RunState) error { return errSave }})
	if err := c.Commit(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	err = c.Commit(1, []float64{1})
	if !errors.Is(err, errSave) || err.Error() != "cluster: round 1 snapshot: disk full" {
		t.Errorf("snapshot error %q", err)
	}

	c = mustNew(t, Config{Name: "cluster", Unit: "round", Dim: 1, Steps: 10, Momentum: 0.99,
		Rate: func(int) float64 { return 1e308 }})
	err = c.Commit(0, []float64{1e10})
	if !errors.Is(err, ErrDiverged) || err.Error() != "cluster: round 0: parameters diverged to non-finite values" {
		t.Errorf("divergence error %q", err)
	}
	if c.History().Len() != 0 {
		t.Errorf("a diverged round was recorded")
	}

	c = mustNew(t, Config{Name: "simulate", Unit: "step", Dim: 1, Steps: 10,
		Rate: func(int) float64 { return 0 }})
	if err := c.Commit(0, []float64{1}); err == nil || c.Params()[0] != 0 {
		t.Errorf("a zero rate was applied (err %v)", err)
	}
}

func TestRestoreRejects(t *testing.T) {
	cfg := Config{Name: "t", Unit: "step", Dim: 3, Steps: 10}
	for name, mutate := range map[string]func(*checkpoint.RunState){
		"wrong dim":        func(st *checkpoint.RunState) { st.Params = st.Params[:2]; st.Velocity = st.Velocity[:2] },
		"beyond steps":     func(st *checkpoint.RunState) { st.Step = 11 },
		"velocity length":  func(st *checkpoint.RunState) { st.Velocity = st.Velocity[:1] },
		"negative step":    func(st *checkpoint.RunState) { st.Step = -1 },
		"unknown version":  func(st *checkpoint.RunState) { st.Version = 1 },
		"no params at all": func(st *checkpoint.RunState) { st.Params, st.Velocity = nil, nil },
	} {
		st := resumeAt(4, 3)
		mutate(st)
		cfg.Resume = st
		cfg.Measure, cfg.Rate = nanRecord, func(int) float64 { return 1 }
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A completed run resumes to nothing left to run, and a snapshot with no
	// velocity keeps the zero momentum buffer.
	st := resumeAt(10, 3)
	st.Velocity = nil
	cfg.Resume = st
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start() != 10 || !reflect.DeepEqual(c.Params(), st.Params) || !reflect.DeepEqual(c.Velocity(), []float64{0, 0, 0}) {
		t.Errorf("completed resume: start %d params %v velocity %v", c.Start(), c.Params(), c.Velocity())
	}
}

// With a slot table the snapshot carries its books and streaks, and New
// restores them into a fresh table: the resumed ledger is the snapshot's.
// Books that do not fit the table are rejected, and a snapshot without
// books leaves the table fresh for the loop to open an epoch.
func TestSnapshotRestoresBooks(t *testing.T) {
	table := func(t *testing.T) *membership.SlotTable {
		t.Helper()
		tr, err := membership.NewTracker(membership.Config{MinWorkers: 3, MaxWorkers: 3, EpochRounds: 10})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 3; id++ {
			if err := tr.Handshake(id); err != nil {
				t.Fatal(err)
			}
		}
		return membership.NewSlotTable(tr, false)
	}
	cfg := Config{Name: "t", Unit: "step", Dim: 2, Steps: 10, Table: table(t)}
	c := mustNew(t, cfg)
	if _, _, _, err := cfg.Table.Advance(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		for id := 0; id < 3; id++ {
			if id != 2 || step < 2 {
				cfg.Table.Deliver(id, step, step)
			}
		}
		cfg.Table.Commit()
		if err := c.Commit(step, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot(4)
	if m := st.Membership; m == nil || len(m.Epochs) != 1 || m.Epochs[0].Missed != 2 || !reflect.DeepEqual(m.Streaks, []int{0, 0, 2}) {
		t.Fatalf("snapshot books %+v", st.Membership)
	}

	cfg.Table, cfg.Resume = table(t), st
	mustNew(t, cfg)
	if got, want := cfg.Table.Epochs(), st.Membership.Epochs; !reflect.DeepEqual(got, want) {
		t.Errorf("restored books %+v, snapshot's %+v", got, want)
	}

	foreign := *st
	foreign.Membership = &checkpoint.MembershipRunState{Epochs: []membership.EpochStat{{N: 2, Rounds: 4, Accepted: 8, View: []int{0, 1}}}}
	cfg.Table, cfg.Resume = table(t), &foreign
	cfg.Measure, cfg.Rate = nanRecord, func(int) float64 { return 0.5 }
	if _, err := New(cfg); err == nil {
		t.Error("books of a 2-worker view restored onto a 3-worker population")
	}

	bookless := *st
	bookless.Membership = nil
	cfg.Table, cfg.Resume = table(t), &bookless
	mustNew(t, cfg)
	if a, m, _ := cfg.Table.Totals(); a+m != 0 || len(cfg.Table.Epochs()) != 0 {
		t.Errorf("bookless resume left ledger %d+%d, books %+v", a, m, cfg.Table.Epochs())
	}
}
