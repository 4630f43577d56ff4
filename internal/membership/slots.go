package membership

import (
	"errors"
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
	// credited counts the accepted frames that arrived a round late; the
	// books are the rest of the ledger.
	credited int
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
	t.enter(v)
	return v, admitted, evicted, nil
}

// enter lays v out as empty slots and opens its books.
func (t *SlotTable) enter(v View) {
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
			t.stat.Missed++
		}
	}
	t.tr.mu.Unlock()
	t.stat.Accepted += t.received
	t.stat.Rounds++
	t.received = 0
}

// Totals returns the run's ledger so far, summed from the epoch books:
// accepted and missed partition the committed delivery slots, and credited
// counts the accepted frames that arrived one round late.
func (t *SlotTable) Totals() (accepted, missed, credited int) {
	accepted, missed = t.stat.Accepted, t.stat.Missed
	for _, e := range t.closed {
		accepted += e.Accepted
		missed += e.Missed
	}
	return accepted, missed, t.credited
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

// Books returns what a snapshot carries of the table: the epoch books, and
// the missed streak of each member of the last book's view, in view order.
func (t *SlotTable) Books() (books []EpochStat, streaks []int) {
	books = t.Epochs()
	if len(books) == 0 {
		return nil, nil
	}
	view := books[len(books)-1].View
	streaks = make([]int, len(view))
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	for i, id := range view {
		streaks[i] = t.tr.members[id].missedStreak
	}
	return books, streaks
}

// Restore re-enters an interrupted run, on a table that has not advanced
// yet, from the books a snapshot carries (see Books): the last book is the
// open epoch, whose view and f become the tracker's, each of its members
// live with its missed streak (nil streaks are all zero) and its connection
// as it stands; credited is the run's credited count. Nothing is replayed,
// so a population that churned re-enters the view it had, and a member that
// has not handshaken counts as disconnected until it does. The books must
// fit the configured population — consecutive epochs from 0, each view a
// sorted set of [MinWorkers, MaxWorkers] ids with the f FRatio derives, no
// epoch longer than EpochRounds and no more rounds in all than step — or
// the snapshot is rejected and the table is left untouched, as it is for
// streaks that are negative or do not match the open view.
func (t *SlotTable) Restore(step int, books []EpochStat, streaks []int, credited int) error {
	cfg := t.tr.cfg
	if len(books) == 0 {
		return errors.New("membership: restore without epoch books")
	}
	open := books[len(books)-1]
	if streaks != nil && (len(streaks) != open.N || slices.Min(streaks) < 0) {
		return fmt.Errorf("membership: restore carries missed streaks %v for an open view of %d", streaks, open.N)
	}
	rounds := 0
	for i, b := range books {
		rounds += b.Rounds
		ok := b.Epoch == i && b.N == len(b.View) && b.N >= cfg.MinWorkers && b.N <= cfg.MaxWorkers &&
			b.F == cfg.F(b.N) && b.Rounds >= 1 && b.Rounds <= cfg.EpochRounds
		for j, id := range b.View {
			ok = ok && id >= 0 && id < cfg.MaxWorkers && (j == 0 || b.View[j-1] < id)
		}
		if !ok {
			return fmt.Errorf("membership: book of epoch %d (n=%d f=%d rounds %d view %v) does not fit a population of [%d, %d] workers, f ratio %v, %d-round epochs",
				b.Epoch, b.N, b.F, b.Rounds, b.View, cfg.MinWorkers, cfg.MaxWorkers, cfg.FRatio, cfg.EpochRounds)
		}
	}
	if rounds > step {
		return fmt.Errorf("membership: restore at step %d carries books of %d rounds", step, rounds)
	}
	t.tr.mu.Lock()
	for i, id := range open.View {
		m := &t.tr.members[id]
		m.status, m.missedStreak = statusLive, 0
		if streaks != nil {
			m.missedStreak = streaks[i]
		}
	}
	t.tr.view, t.tr.epoch = View{Epoch: open.Epoch, Members: open.View, F: open.F}, open.Epoch
	t.tr.mu.Unlock()
	t.enter(t.tr.view)
	t.stat, t.closed, t.credited = open, slices.Clone(books[:len(books)-1]), credited
	return nil
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
