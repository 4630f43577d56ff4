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

// Resume replays a fixed cohort's boundaries up to the epoch holding the
// snapshot step, restores its books and totals so the run continues as if
// uninterrupted, and rejects books that do not fit the views the tracker
// derives.
func TestSlotTableResume(t *testing.T) {
	cfg := Config{MinWorkers: 3, MaxWorkers: 3, FRatio: 0.34, EpochRounds: 2, EvictAfter: 100}
	fresh := func() *SlotTable {
		tr := newTestTracker(t, cfg)
		for id := 0; id < 3; id++ {
			if err := tr.Handshake(id); err != nil {
				t.Fatal(err)
			}
		}
		return NewSlotTable(tr, true)
	}
	// play runs rounds [from, to); worker 2 is silent in odd rounds. Both
	// runs below split at step 5, inside epoch 2.
	play := func(tb *SlotTable, from, to int) {
		for step := from; step < to; step++ {
			if step%cfg.EpochRounds == 0 {
				if _, _, _, err := tb.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			for id := 0; id < 3; id++ {
				if id != 2 || step%2 == 0 {
					tb.Deliver(id, step, step)
				}
			}
			tb.Commit()
		}
	}
	full := fresh()
	play(full, 0, 5)
	books := full.Epochs()
	a, m, c := full.Totals()
	play(full, 5, 8)

	tb := fresh()
	v, err := tb.Resume(5, books, a, m, c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 || v.N() != 3 || v.F != 1 {
		t.Fatalf("re-entered view %+v, want epoch 2 with n=3 f=1", v)
	}
	play(tb, 5, 8)
	if !reflect.DeepEqual(tb.Epochs(), full.Epochs()) {
		t.Errorf("resumed books %+v, uninterrupted %+v", tb.Epochs(), full.Epochs())
	}
	ra, rm, rc := tb.Totals()
	if fa, fm, fc := full.Totals(); ra != fa || rm != fm || rc != fc {
		t.Errorf("resumed totals %d/%d/%d, uninterrupted %d/%d/%d", ra, rm, rc, fa, fm, fc)
	}

	// A run that keeps no books re-enters the same view with an empty ledger.
	plain := fresh()
	if v, err := plain.Resume(5, nil, 0, 0, 0); err != nil || v.Epoch != 2 {
		t.Fatalf("bookless resume: view %+v, %v", v, err)
	}
	if got := plain.Epochs(); len(got) != 0 {
		t.Errorf("bookless resume books %+v, want none", got)
	}

	foreign := append([]EpochStat(nil), books...)
	foreign[1].N, foreign[1].View = 2, []int{0, 1}
	for _, tc := range []struct {
		name  string
		books []EpochStat
		want  string
	}{
		{"another cohort", foreign, "resume books of epoch 1 (n=2 f=1 view [0 1]) do not match the tracker's epoch 1 (n=3 f=1 view [0 1 2])"},
		{"missing the open epoch", books[:2], "resume at step 5 carries 2 epoch books, want 3"},
	} {
		if _, err := fresh().Resume(5, tc.books, a, m, c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
