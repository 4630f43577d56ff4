package membership

import (
	"reflect"
	"strings"
	"testing"
)

// TestSlotTableDispositions walks the accept / credit / discard table and
// the commit bookkeeping through two epochs: every verdict with its reason,
// the ledger identity after each commit, and the eviction streak the commits
// feed back into the tracker.
func TestSlotTableDispositions(t *testing.T) {
	tr := newTestTracker(t, Config{MinWorkers: 2, MaxWorkers: 4, EpochRounds: 2, EvictAfter: 2})
	for _, id := range []int{0, 2, 3} {
		if err := tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	tb := NewSlotTable(tr, true)
	if _, _, _, err := tb.Advance(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Handshake(1); err != nil { // pending until the next boundary
		t.Fatal(err)
	}

	deliveries := []struct {
		id, tag, round int
		slot           int
		want           Disposition
	}{
		{id: 0, tag: 5, round: 5, slot: 0, want: Accepted},
		{id: 0, tag: 5, round: 5, slot: 0, want: Duplicate},
		{id: 2, tag: 4, round: 5, slot: 1, want: Credited},
		{id: 2, tag: 5, round: 5, slot: 1, want: Duplicate},
		{id: 3, tag: 3, round: 5, slot: 2, want: Stale},
		{id: 3, tag: 6, round: 5, slot: 2, want: Future},
		{id: 1, tag: 5, round: 5, slot: -1, want: NotMember}, // handshaken, not admitted
		{id: 7, tag: 5, round: 5, slot: -1, want: NotMember}, // outside the id range
		{id: -1, tag: 5, round: 5, slot: -1, want: NotMember},
	}
	for _, d := range deliveries {
		slot, got := tb.Deliver(d.id, d.tag, d.round)
		if slot != d.slot || got != d.want {
			t.Errorf("Deliver(id %d, tag %d, round %d) = slot %d, %v; want slot %d, %v",
				d.id, d.tag, d.round, slot, got, d.slot, d.want)
		}
		if got.Fills() != (d.want == Accepted || d.want == Credited) {
			t.Errorf("%v.Fills() = %v", got, got.Fills())
		}
	}
	if tb.Received() != 2 || !tb.Filled(0) || !tb.Filled(1) || tb.Filled(2) {
		t.Fatalf("after collect: received %d, filled %v %v %v; want 2, true true false",
			tb.Received(), tb.Filled(0), tb.Filled(1), tb.Filled(2))
	}
	tb.Commit()
	if a, m, c := tb.Totals(); a != 2 || m != 1 || c != 1 {
		t.Errorf("totals after round 1: accepted %d missed %d credited %d, want 2 1 1", a, m, c)
	}
	if tb.Received() != 0 || tb.Filled(0) {
		t.Error("commit left slots filled")
	}

	// Without late credit the same round−1 frame is stale.
	strict := NewSlotTable(newTestTracker(t, tr.Config()), false)
	for _, id := range []int{0, 2} {
		if err := strict.tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := strict.Advance(); err != nil {
		t.Fatal(err)
	}
	if _, got := strict.Deliver(2, 4, 5); got != Stale {
		t.Errorf("round−1 frame without late credit = %v, want %v", got, Stale)
	}

	// A second silent round takes worker 3 to the eviction streak; the
	// boundary evicts it, admits worker 1 and closes epoch 0's books.
	tb.Deliver(0, 6, 6)
	tb.Deliver(2, 6, 6)
	tb.Commit()
	v, admitted, evicted, err := tb.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(v.Members, []int{0, 1, 2}) || !equalInts(admitted, []int{1}) || !equalInts(evicted, []int{3}) {
		t.Errorf("boundary: view %v admitted %v evicted %v", v.Members, admitted, evicted)
	}
	if slot, got := tb.Deliver(3, 7, 7); slot != -1 || got != NotMember {
		t.Errorf("evicted worker's frame = slot %d, %v; want -1, %v", slot, got, NotMember)
	}
	if slot, got := tb.Deliver(1, 7, 7); slot != 1 || got != Accepted {
		t.Errorf("admitted worker's frame = slot %d, %v; want 1, %v", slot, got, Accepted)
	}
	tb.Commit()
	epochs := tb.Epochs()
	if err := BalanceEpochs(epochs); err != nil {
		t.Error(err)
	}
	if len(epochs) != 2 || epochs[0].Rounds != 2 || epochs[0].Accepted != 4 || epochs[0].Missed != 2 ||
		epochs[1].Rounds != 1 || epochs[1].N != 3 || epochs[1].Accepted != 1 || epochs[1].Missed != 2 {
		t.Errorf("epoch books %+v", epochs)
	}
	if a, m, _ := tb.Totals(); a+m != 3*2+3*1 {
		t.Errorf("ledger %d + %d != 9 slots", a, m)
	}
}

// Restore re-enters an interrupted run from its snapshot's books — the open
// epoch's view, f and missed streaks, totals derived from the books — so the
// run continues as if uninterrupted. The population churns (worker 3 joins
// at round 3, worker 2 falls silent at round 4 and is evicted at round 6),
// which no replay of boundaries from a fresh tracker could reproduce. Books
// that do not fit the configured population are rejected.
func TestSlotTableResume(t *testing.T) {
	cfg := Config{MinWorkers: 2, MaxWorkers: 4, FRatio: 0.34, EpochRounds: 3, EvictAfter: 2}
	fresh := func(ids ...int) *SlotTable {
		tr := newTestTracker(t, cfg)
		for _, id := range ids {
			if err := tr.Handshake(id); err != nil {
				t.Fatal(err)
			}
		}
		return NewSlotTable(tr, true)
	}
	play := func(tb *SlotTable, from, to int) {
		for step := from; step < to; step++ {
			if step%cfg.EpochRounds == 0 {
				if step == 3 {
					if err := tb.tr.Handshake(3); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, _, err := tb.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range tb.view.Members {
				if id != 2 || step < 4 {
					tb.Deliver(id, step, step)
				}
			}
			tb.Commit()
		}
	}
	full := fresh(0, 1, 2)
	play(full, 0, 5)
	books, streaks := full.Books()
	_, _, credited := full.Totals()
	play(full, 5, 8)
	if got := full.Epochs()[2].View; !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("uninterrupted epoch 2 view %v, want worker 2 evicted", got)
	}

	// The restored table's members reconnect after the restore, as workers
	// redial a resumed server.
	tb := fresh()
	if err := tb.Restore(5, books, streaks, credited); err != nil {
		t.Fatal(err)
	}
	if v := tb.tr.View(); v.Epoch != 1 || v.N() != 4 || v.F != 1 {
		t.Fatalf("re-entered view %+v, want epoch 1 with n=4 f=1", v)
	}
	if got := tb.tr.Population(); got != 0 {
		t.Errorf("restored members count %d before they reconnect, want 0", got)
	}
	for id := 0; id < 4; id++ {
		if err := tb.tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.tr.Population(); got != 4 {
		t.Errorf("population %d once the view reconnected, want its 4 members", got)
	}
	play(tb, 5, 8)
	if !reflect.DeepEqual(tb.Epochs(), full.Epochs()) {
		t.Errorf("resumed books %+v, uninterrupted %+v", tb.Epochs(), full.Epochs())
	}
	ra, rm, rc := tb.Totals()
	if fa, fm, fc := full.Totals(); ra != fa || rm != fm || rc != fc {
		t.Errorf("resumed totals %d/%d/%d, uninterrupted %d/%d/%d", ra, rm, rc, fa, fm, fc)
	}

	// The gather counts the restored view's reconnected members, not a
	// non-member waiting for the next boundary.
	early := fresh()
	if err := early.Restore(2, []EpochStat{{Epoch: 0, N: 3, F: 1, Rounds: 2, Accepted: 6, View: []int{0, 1, 2}}}, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 3} {
		if err := early.tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := early.tr.Population(); got != 2 {
		t.Errorf("population %d with 2 of 3 members back and a joiner pending, want 2", got)
	}

	// Books written before snapshots carried streaks restore as all zero.
	if err := fresh().Restore(5, books, nil, credited); err != nil {
		t.Errorf("streak-free books: %v", err)
	}
	foreign := append([]EpochStat(nil), books...)
	foreign[0].N, foreign[0].View, foreign[0].Accepted = 1, []int{0}, 3
	for _, tc := range []struct {
		name    string
		tb      *SlotTable
		step    int
		books   []EpochStat
		streaks []int
		want    string
	}{
		{"another population", fresh(), 5, foreign, streaks, "book of epoch 0 (n=1 f=1 rounds 3 view [0]) does not fit a population of [2, 4] workers"},
		{"no books", fresh(), 5, nil, nil, "restore without epoch books"},
		{"streaks of another view", fresh(), 5, books, streaks[:2], "missed streaks [0 0] for an open view of 4"},
		{"negative streak", fresh(), 5, books, []int{0, 0, -3, 0}, "missed streaks [0 0 -3 0]"},
		{"more rounds than steps", fresh(), 4, books, streaks, "restore at step 4 carries books of 5 rounds"},
	} {
		if err := tc.tb.Restore(tc.step, tc.books, tc.streaks, credited); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
