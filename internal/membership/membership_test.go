package membership

import (
	"errors"
	"testing"
)

func newTestTracker(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := NewTracker(cfg)
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	return tr
}

func mustAdvance(t *testing.T, tr *Tracker) (View, []int, []int) {
	t.Helper()
	v, adm, ev, err := tr.AdvanceEpoch()
	if err != nil {
		t.Fatalf("AdvanceEpoch: %v", err)
	}
	return v, adm, ev
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConfigValidate(t *testing.T) {
	good := Config{MinWorkers: 2, MaxWorkers: 8, FRatio: 0.25, EpochRounds: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{MinWorkers: 0, MaxWorkers: 8, EpochRounds: 4},
		{MinWorkers: 4, MaxWorkers: 3, EpochRounds: 4},
		{MinWorkers: 2, MaxWorkers: 8, FRatio: 0.5, EpochRounds: 4},
		{MinWorkers: 2, MaxWorkers: 8, FRatio: -0.1, EpochRounds: 4},
		{MinWorkers: 2, MaxWorkers: 8, EpochRounds: 0},
		{MinWorkers: 2, MaxWorkers: 8, EpochRounds: 4, EvictAfter: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestFRatioFloor(t *testing.T) {
	cases := []struct {
		ratio float64
		n, f  int
	}{
		{0.2, 11, 2},
		{0.2, 10, 2},
		{0.3, 10, 3}, // exact ratio must not round down through float error
		{0.25, 7, 1},
		{0.45, 11, 4},
		{0, 64, 0},
	}
	for _, c := range cases {
		cfg := Config{FRatio: c.ratio}
		if got := cfg.F(c.n); got != c.f {
			t.Errorf("F(%v, n=%d) = %d, want %d", c.ratio, c.n, got, c.f)
		}
	}
}

func TestViewQuorum(t *testing.T) {
	v := View{Members: []int{0, 1, 2, 3, 4, 5, 6}, F: 2}
	if q := v.Quorum(2); q != 3 {
		t.Errorf("quorum(2) = %d, want 3", q)
	}
	if q := v.Quorum(0); q != 5 {
		t.Errorf("quorum(0) = %d, want 5", q)
	}
	// A budget that would push the threshold below 1 degenerates to full sync.
	if q := v.Quorum(10); q != 7 {
		t.Errorf("quorum(10) = %d, want n=7", q)
	}
	if !v.Contains(4) || v.Contains(7) {
		t.Error("Contains broken")
	}
}

func TestTrackerJoinLeaveLifecycle(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 2, MaxWorkers: 5, FRatio: 0.34, EpochRounds: 2})

	for _, id := range []int{0, 1, 2} {
		if err := tr.Handshake(id); err != nil {
			t.Fatalf("handshake %d: %v", id, err)
		}
	}
	v, adm, ev := mustAdvance(t, tr)
	if v.Epoch != 0 || !equalInts(v.Members, []int{0, 1, 2}) || v.F != 1 {
		t.Fatalf("epoch 0 view = %+v", v)
	}
	if !equalInts(adm, []int{0, 1, 2}) || len(ev) != 0 {
		t.Fatalf("epoch 0 deltas adm=%v ev=%v", adm, ev)
	}

	// Mid-epoch join waits for the boundary; mid-epoch disconnect of a
	// live member keeps it in the frozen view until the boundary.
	if err := tr.Handshake(4); err != nil {
		t.Fatalf("handshake 4: %v", err)
	}
	tr.Disconnect(1)
	if got := tr.View(); !equalInts(got.Members, []int{0, 1, 2}) {
		t.Fatalf("view changed mid-epoch: %+v", got)
	}

	v, adm, ev = mustAdvance(t, tr)
	if v.Epoch != 1 || !equalInts(v.Members, []int{0, 2, 4}) {
		t.Fatalf("epoch 1 view = %+v", v)
	}
	if !equalInts(adm, []int{4}) || !equalInts(ev, []int{1}) {
		t.Fatalf("epoch 1 deltas adm=%v ev=%v", adm, ev)
	}

	// The evicted worker can rejoin: pending again, admitted next boundary.
	if err := tr.Handshake(1); err != nil {
		t.Fatalf("rejoin handshake: %v", err)
	}
	v, adm, _ = mustAdvance(t, tr)
	if !equalInts(v.Members, []int{0, 1, 2, 4}) || !equalInts(adm, []int{1}) {
		t.Fatalf("rejoin epoch view=%+v adm=%v", v, adm)
	}
	for id, m := range tr.members {
		if handshaken := m.status != statusAbsent; handshaken != (id != 3) {
			t.Fatalf("worker %d handshaken = %v", id, handshaken)
		}
	}
}

func TestTrackerMissedStreakEviction(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 1, MaxWorkers: 4, FRatio: 0, EpochRounds: 2, EvictAfter: 2})
	for _, id := range []int{0, 1} {
		if err := tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	// The slot table books the streaks: a member whose slot no frame fills
	// at a commit misses the round.
	tb := NewSlotTable(tr, false)
	advance := func() (View, []int) {
		t.Helper()
		v, _, ev, err := tb.Advance()
		if err != nil {
			t.Fatal(err)
		}
		return v, ev
	}
	r := 0
	round := func(ids ...int) {
		for _, id := range ids {
			tb.Deliver(id, r, r)
		}
		tb.Commit()
		r++
	}
	advance()

	// One miss then an accept: streak resets, survives the boundary.
	round(0)
	round(0, 1)
	round(0)
	v, ev := advance()
	if len(ev) != 0 || !equalInts(v.Members, []int{0, 1}) {
		t.Fatalf("streak-reset worker evicted: view=%+v ev=%v", v, ev)
	}

	// Two consecutive misses: evicted at the boundary.
	round(0)
	round(0)
	v, ev = advance()
	if !equalInts(ev, []int{1}) || !equalInts(v.Members, []int{0}) {
		t.Fatalf("silent worker kept: view=%+v ev=%v", v, ev)
	}
}

func TestTrackerCapacityAndIDs(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 1, MaxWorkers: 2, FRatio: 0, EpochRounds: 1})
	if err := tr.Handshake(-1); !errors.Is(err, ErrBadWorkerID) {
		t.Errorf("id -1: %v", err)
	}
	if err := tr.Handshake(2); !errors.Is(err, ErrBadWorkerID) {
		t.Errorf("id 2 (== max): %v", err)
	}
	if err := tr.Handshake(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Handshake(1); err != nil {
		t.Fatal(err)
	}
	// Re-handshake of a known id is a reconnect, not a capacity hit.
	if err := tr.Handshake(0); err != nil {
		t.Errorf("reconnect: %v", err)
	}
}

func TestTrackerViewCollapse(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 2, MaxWorkers: 4, FRatio: 0, EpochRounds: 1})
	for _, id := range []int{0, 1} {
		if err := tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	mustAdvance(t, tr)
	tr.Disconnect(0)
	if _, _, _, err := tr.AdvanceEpoch(); !errors.Is(err, ErrViewCollapsed) {
		t.Fatalf("boundary below min: %v", err)
	}
}

func TestBalanceEpochs(t *testing.T) {
	good := []EpochStat{
		{Epoch: 0, N: 3, Rounds: 2, Accepted: 5, Missed: 1},
		{Epoch: 1, N: 4, Rounds: 2, Accepted: 8, Missed: 0},
	}
	if err := BalanceEpochs(good); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	bad := []EpochStat{{Epoch: 0, N: 3, Rounds: 2, Accepted: 5, Missed: 0}}
	if err := BalanceEpochs(bad); err == nil {
		t.Fatal("imbalanced books accepted")
	}
}

func TestTrackerCloneIsolation(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 1, MaxWorkers: 4, FRatio: 0.3, EpochRounds: 1})
	if err := tr.Handshake(0); err != nil {
		t.Fatal(err)
	}
	mustAdvance(t, tr)
	c := tr.Clone()
	if err := c.Handshake(1); err != nil {
		t.Fatal(err)
	}
	c.Disconnect(0)
	if tr.Population() != 1 {
		t.Error("clone mutation leaked into original")
	}
	if tr.stateKey() == c.stateKey() {
		t.Error("diverged tracker states share a key")
	}
}
