package membership

import (
	"fmt"
	"slices"
)

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
// the tracker's eviction streaks. Three callers execute the same methods:
// the cluster server's collect loop, the model checker in machine.go, which
// explores every interleaving of them, and the local simulator, which turns
// its seed-drawn arrival model into Deliver calls on a cohort that never
// churns. So the exhaustively checked transitions are the shipped ones on
// both backends.
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
// as empty slots. Over an unchanged cohort it allocates only to grow the
// closed books.
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
	// Commit left every slot empty, so a same-sized layout is reused as is.
	if len(t.filled) != v.N() {
		t.filled = make([]bool, v.N())
	}
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
// and the slots are emptied for the next round. The streaks are written
// under one tracker lock for the whole round.
//
//dpbyz:hotpath
func (t *SlotTable) Commit() {
	t.tr.mu.Lock()
	for i, id := range t.view.Members {
		if t.filled[i] {
			t.tr.members[id].missedStreak = 0
			t.filled[i] = false
		} else {
			t.tr.members[id].missedStreak++
			t.missed++
			t.stat.Missed++
		}
	}
	t.tr.mu.Unlock()
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
	epochs := append(make([]EpochStat, 0, len(t.closed)+1), t.closed...)
	if t.stat.Rounds > 0 {
		epochs = append(epochs, t.stat)
	}
	return epochs
}

// Resume re-enters an interrupted run on a table that has not advanced yet:
// it replays the boundaries up to the epoch holding round step−1, lays that
// epoch's view out and restores the run's books. Replaying is exact only for
// a population that changes at boundaries alone — a fixed cohort. books are
// the ledgers of epochs 0 through the open one (nil when the run kept none),
// and accepted, missed and credited the run totals. Every book must match the
// view the tracker derives for its epoch, so a snapshot of another
// population is rejected. It returns the re-entered view.
func (t *SlotTable) Resume(step int, books []EpochStat, accepted, missed, credited int) (View, error) {
	open := (step - 1) / t.tr.cfg.EpochRounds
	if books != nil && len(books) != open+1 {
		return View{}, fmt.Errorf("membership: resume at step %d carries %d epoch books, want %d", step, len(books), open+1)
	}
	for e := 0; e <= open; e++ {
		v, _, _, err := t.Advance()
		if err != nil {
			return View{}, err
		}
		if books != nil {
			b := books[e]
			if b.Epoch != v.Epoch || b.N != v.N() || b.F != v.F || !slices.Equal(b.View, v.Members) {
				return View{}, fmt.Errorf("membership: resume books of epoch %d (n=%d f=%d view %v) do not match the tracker's epoch %d (n=%d f=%d view %v)",
					b.Epoch, b.N, b.F, b.View, v.Epoch, v.N(), v.F, v.Members)
			}
			// The next boundary closes the book as it closes any open epoch.
			b.View = v.Members
			t.stat = b
		}
	}
	t.accepted, t.missed, t.credited = accepted, missed, credited
	return t.view, nil
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
