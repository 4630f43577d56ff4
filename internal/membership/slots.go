package membership

// Disposition is the slot table's verdict on one delivered gradient frame.
type Disposition uint8

const (
	// Accepted: a current-round frame filled its sender's empty slot.
	Accepted Disposition = iota
	// Credited: a round−1 frame filled its sender's empty slot under the
	// late-credit policy (bounded staleness 1).
	Credited
	// NotMember: the sender is not in the epoch's view — evicted, still
	// pending admission, or an id outside the population range.
	NotMember
	// Duplicate: the sender's slot already holds a submission this round.
	Duplicate
	// Stale: the frame is older than the credit window admits.
	Stale
	// Future: the frame is tagged ahead of the round being collected.
	Future
)

// Fills reports whether the frame entered the round (Accepted or Credited);
// every other disposition is a discard, and String names the reason.
func (d Disposition) Fills() bool { return d <= Credited }

func (d Disposition) String() string {
	switch d {
	case Accepted:
		return "accepted"
	case Credited:
		return "credited late"
	case NotMember:
		return "sender not in the epoch's view"
	case Duplicate:
		return "slot already filled"
	case Stale:
		return "stale round tag"
	default:
		return "future round tag"
	}
}

// SlotTable is the round protocol's one decision point: an epoch's frozen
// view laid out as delivery slots, the accept / credit / discard verdict for
// every frame that reaches the server, and the commit bookkeeping that turns
// a round's fills into the ledger (Accepted + Missed == Σ n_e × rounds_e) and
// the tracker's eviction streaks. The cluster server's collect loop executes
// it and the model checker in machine.go explores it — the same methods, so
// the exhaustively checked transitions are the shipped ones.
//
// A SlotTable is driven by one goroutine (the round loop); the Tracker it
// feeds is the concurrency-safe half.
type SlotTable struct {
	tr         *Tracker
	lateCredit bool
	view       View
	// slotOf maps a worker id to its slot in view.Members, −1 for ids
	// outside the view; it spans [0, MaxWorkers).
	slotOf []int
	filled []bool
	// received counts the slots filled this round: the quorum trigger, and
	// at commit the round's accepted total.
	received int
	// Run totals; credited ⊆ accepted.
	accepted, missed, credited int
	// stat is the open epoch's books; closed holds the finished epochs.
	stat   EpochStat
	closed []EpochStat
}

// NewSlotTable returns a table over tr's population with no view yet: the
// first Advance admits the initial cohort as epoch 0. lateCredit admits a
// frame exactly one round stale into an empty slot.
func NewSlotTable(tr *Tracker, lateCredit bool) *SlotTable {
	slotOf := make([]int, tr.cfg.MaxWorkers)
	for i := range slotOf {
		slotOf[i] = -1
	}
	return &SlotTable{tr: tr, lateCredit: lateCredit, slotOf: slotOf}
}

// Advance runs an epoch boundary: it closes the open epoch's books, advances
// the tracker (admissions, evictions, re-derived f — see
// Tracker.AdvanceEpoch, whose results it returns) and lays the new view out
// as empty slots.
func (t *SlotTable) Advance() (View, []int, []int, error) {
	v, admitted, evicted, err := t.tr.AdvanceEpoch()
	if err != nil {
		return View{}, nil, nil, err
	}
	if t.stat.Rounds > 0 {
		t.closed = append(t.closed, t.stat)
	}
	for _, id := range t.view.Members {
		t.slotOf[id] = -1
	}
	for i, id := range v.Members {
		t.slotOf[id] = i
	}
	t.view = v
	t.filled = make([]bool, v.N())
	t.received = 0
	t.stat = EpochStat{Epoch: v.Epoch, N: v.N(), F: v.F, View: v.Members}
	return v, admitted, evicted, nil
}

// Deliver decides what happens to a frame tagged `tag` from worker id that
// arrives while `round` is being collected, and returns the sender's slot
// (−1 for a non-member). A current-round frame into an empty slot is
// accepted; with late credit a round−1 frame into an empty slot is credited;
// everything else is discarded, with the reason. Exactly this round-tagged,
// idempotent table is what makes duplicated, reordered and delayed delivery
// safe.
//
//dpbyz:hotpath
func (t *SlotTable) Deliver(id, tag, round int) (int, Disposition) {
	if id < 0 || id >= len(t.slotOf) || t.slotOf[id] < 0 {
		return -1, NotMember
	}
	slot := t.slotOf[id]
	switch {
	case tag > round:
		return slot, Future
	case tag < round-1 || (tag < round && !t.lateCredit):
		return slot, Stale
	case t.filled[slot]:
		return slot, Duplicate
	}
	t.filled[slot] = true
	t.received++
	if tag == round {
		return slot, Accepted
	}
	t.credited++
	return slot, Credited
}

// Received is how many slots are filled this round.
func (t *SlotTable) Received() int { return t.received }

// Filled reports whether slot holds a submission this round; the caller
// zero-pads exactly the slots that do not.
func (t *SlotTable) Filled(slot int) bool { return t.filled[slot] }

// Commit closes the round: every filled slot books an accept and resets its
// member's missed streak, every unfilled slot books a miss and extends it,
// and the slots are emptied for the next round.
//
//dpbyz:hotpath
func (t *SlotTable) Commit() {
	for i, id := range t.view.Members {
		if t.filled[i] {
			t.tr.RecordAccept(id)
			t.filled[i] = false
		} else {
			t.missed++
			t.stat.Missed++
			t.tr.RecordMiss(id)
		}
	}
	t.accepted += t.received
	t.stat.Accepted += t.received
	t.stat.Rounds++
	t.received = 0
}

// Totals returns the run's ledger so far: accepted and missed partition the
// committed delivery slots, and credited counts the accepted frames that
// arrived one round late.
func (t *SlotTable) Totals() (accepted, missed, credited int) {
	return t.accepted, t.missed, t.credited
}

// Epochs returns the per-epoch books, the open epoch included once it has
// committed a round.
func (t *SlotTable) Epochs() []EpochStat {
	epochs := append([]EpochStat(nil), t.closed...)
	if t.stat.Rounds > 0 {
		epochs = append(epochs, t.stat)
	}
	return epochs
}

// clone deep-copies the table (and its tracker) so model-checker branches
// never share mutable state. Views are immutable once derived and closed
// books are append-only, so both are shared (the capacity clip makes the
// next append copy instead of writing into a sibling's array).
func (t *SlotTable) clone() *SlotTable {
	c := *t
	c.tr = t.tr.Clone()
	c.slotOf = append([]int(nil), t.slotOf...)
	c.filled = append([]bool(nil), t.filled...)
	c.closed = t.closed[:len(t.closed):len(t.closed)]
	return &c
}
