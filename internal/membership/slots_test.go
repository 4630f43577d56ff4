package membership

import "testing"

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
