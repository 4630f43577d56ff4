// Package membership is the epoched-membership layer of the networked
// parameter server: it decides, deterministically from an explicit event
// history, which workers belong to each training epoch.
//
// The cluster's original contract — the worker set fixed at NewServer
// survives the whole run — is the opposite of the paper's threat model,
// where the adversary chooses which f of n workers misbehave each round.
// This package replaces it with epochs: the run is partitioned into
// EpochRounds-round windows, and the member view only changes at window
// boundaries. Between boundaries the view is frozen, so every round's
// accounting has a well-defined n; at a boundary, handshaken workers
// waiting to join are admitted, disconnected or persistently silent
// workers are evicted, and f is re-derived from the live count via FRatio
// — the self-stabilizing shape of Dolev/Dubois/Tixeuil's communication
// layer, specialized to synchronous rounds.
//
// The Tracker is a pure state machine over Handshake / Disconnect /
// AdvanceEpoch events and the missed streaks SlotTable.Commit books: two
// trackers fed the same event sequence produce identical views. On top of
// it the SlotTable (slots.go) is the round protocol's decision point —
// which frame fills which slot, which is discarded and why, what a commit
// books — the boundary that advances the tracker, and the restore that
// re-enters a snapshot's open epoch.
//
// What is shared, precisely: three callers execute the Tracker and the
// SlotTable — the cluster server's one round loop from real connection
// events (inherently timing-dependent), the model checker in machine.go from
// exhaustively enumerated interleavings of sends, drops, duplicates, delays,
// crashes and joins, and the local simulator from its seed-drawn arrival
// model (which workers straggle, which frames are a round late) — so the
// explored transitions are the shipped ones on both backends. A fixed worker
// cohort is not a second protocol: it is the population that never changes
// (MinWorkers = MaxWorkers = n, one epoch spanning the run unless epochs are
// configured), and the simulator's cohort also never evicts.
//
//dpbyz:deterministic
package membership

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// DefaultEvictAfter is the consecutive-missed-round streak after which a
// silent member is evicted at the next epoch boundary. Two full rounds of
// silence distinguishes a crash from a transient hiccup without letting a
// dead worker dilute more than one boundary's view.
const DefaultEvictAfter = 2

// Config bounds an epoched-membership run.
type Config struct {
	// MinWorkers is the population floor: the run starts once this many
	// workers have handshaken, and a boundary that would leave fewer live
	// members aborts the run instead of silently training on a sliver.
	MinWorkers int
	// MaxWorkers caps the population (and the valid worker-id range
	// [0, MaxWorkers)); joins beyond it are rejected at handshake.
	MaxWorkers int
	// FRatio is the Byzantine fraction assumed of every view: epoch e
	// tolerates f_e = floor(FRatio · n_e) Byzantine members.
	FRatio float64
	// EpochRounds is the boundary spacing: views are re-derived every
	// EpochRounds rounds.
	EpochRounds int
	// EvictAfter is the missed-round streak that marks a member for
	// eviction (0 means DefaultEvictAfter).
	EvictAfter int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MinWorkers < 1 {
		return fmt.Errorf("membership: min workers %d below 1", c.MinWorkers)
	}
	if c.MaxWorkers < c.MinWorkers {
		return fmt.Errorf("membership: max workers %d below min %d", c.MaxWorkers, c.MinWorkers)
	}
	if c.FRatio < 0 || c.FRatio >= 0.5 {
		return fmt.Errorf("membership: f ratio %v outside [0, 0.5)", c.FRatio)
	}
	if c.EpochRounds < 1 {
		return fmt.Errorf("membership: epoch length %d below 1 round", c.EpochRounds)
	}
	if c.EvictAfter < 0 {
		return fmt.Errorf("membership: negative evict-after %d", c.EvictAfter)
	}
	return nil
}

// evictAfter returns the configured streak with the default applied.
func (c Config) evictAfter() int {
	if c.EvictAfter > 0 {
		return c.EvictAfter
	}
	return DefaultEvictAfter
}

// F is the per-epoch Byzantine allowance floor(FRatio·n). The small bias
// keeps exact ratios (0.3 · 10) from rounding down through float error.
func (c Config) F(n int) int {
	return int(c.FRatio*float64(n) + 1e-9)
}

// View is one epoch's frozen membership.
type View struct {
	// Epoch is the 0-based epoch number.
	Epoch int
	// Members holds the live worker ids, sorted ascending.
	Members []int
	// F is the epoch's Byzantine allowance floor(FRatio·n).
	F int
}

// N is the view's population.
func (v View) N() int { return len(v.Members) }

// Quorum is the bounded-staleness commit threshold n − f − stragglers for
// this view, clamped to at least 1 (a non-positive budget degenerates to
// full synchrony, which the caller expresses as quorum == n).
func (v View) Quorum(stragglers int) int {
	q := v.N() - v.F - stragglers
	if q < 1 || q > v.N() {
		return v.N()
	}
	return q
}

// Contains reports whether id is a member (Members is sorted).
func (v View) Contains(id int) bool {
	_, ok := slices.BinarySearch(v.Members, id)
	return ok
}

// EpochStat is one epoch's closed books. Over a completed run the ledger
// identity Σ (Accepted_e + Missed_e) == Σ N_e × Rounds_e holds exactly.
type EpochStat struct {
	// Epoch is the 0-based epoch number.
	Epoch int `json:"epoch"`
	// N and F are the epoch's population and Byzantine allowance.
	N int `json:"n"`
	F int `json:"f"`
	// Rounds is how many rounds committed inside the epoch.
	Rounds int `json:"rounds"`
	// Accepted and Missed partition the epoch's N×Rounds delivery slots.
	Accepted int `json:"accepted"`
	Missed   int `json:"missed"`
	// View records the member ids (sorted; omitted when the caller's
	// population is trivially [0, n)).
	View []int `json:"view,omitempty"`
}

// BalanceEpochs checks the exact per-epoch ledger identity
// Accepted+Missed == Σ N_e × Rounds_e over a slice of closed epochs.
func BalanceEpochs(epochs []EpochStat) error {
	slots, accepted, missed := 0, 0, 0
	for _, e := range epochs {
		slots += e.N * e.Rounds
		accepted += e.Accepted
		missed += e.Missed
		if e.Accepted+e.Missed != e.N*e.Rounds {
			return fmt.Errorf("membership: epoch %d books %d+%d != %d×%d",
				e.Epoch, e.Accepted, e.Missed, e.N, e.Rounds)
		}
	}
	if accepted+missed != slots {
		return fmt.Errorf("membership: ledger %d+%d != %d total slots", accepted, missed, slots)
	}
	return nil
}

// Membership errors.
var (
	// ErrViewCollapsed reports a boundary that would leave fewer than
	// MinWorkers live members.
	ErrViewCollapsed = errors.New("membership: live view collapsed below min workers")
	// ErrBadWorkerID rejects an id outside [0, MaxWorkers).
	ErrBadWorkerID = errors.New("membership: worker id outside [0, max)")
)

// status is a tracked worker's lifecycle position.
type status uint8

const (
	statusAbsent  status = iota // never handshaken
	statusPending               // handshaken, waiting for a boundary
	statusLive                  // in the current view
	statusEvicted               // removed; may handshake again
)

// memberState is the Tracker's per-worker record.
type memberState struct {
	status status
	// connected is false once the transport reported the worker gone;
	// a disconnected live member is evicted at the next boundary.
	connected bool
	// missedStreak counts consecutive rounds the member's slot was
	// zero-padded; EvictAfter consecutive misses evict at the boundary.
	missedStreak int
}

// Tracker is the deterministic epoch-membership state machine. It is
// safe for concurrent use (the cluster server's accept loop, reader
// goroutines and round loop all feed it); determinism is with respect to
// the event order the callers establish.
type Tracker struct {
	mu  sync.Mutex
	cfg Config
	// members is indexed by worker id over [0, MaxWorkers). An id leaves
	// statusAbsent at its first handshake and never returns to it, so the
	// model-checked safety invariant view ⊆ handshaken reads off status.
	members []memberState
	view    View
	epoch   int
}

// NewTracker validates cfg and returns an empty tracker (epoch −1: the
// first AdvanceEpoch call admits the initial cohort as epoch 0).
func NewTracker(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, members: make([]memberState, cfg.MaxWorkers), epoch: -1}, nil
}

// Config returns the tracker's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Handshake records a completed worker handshake: a new or previously
// evicted id becomes pending (admitted at the next boundary), and a
// current member reconnecting after a transport drop is simply marked
// connected again (it keeps its slot; its missed rounds still count).
func (t *Tracker) Handshake(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= t.cfg.MaxWorkers {
		return fmt.Errorf("%w: %d", ErrBadWorkerID, id)
	}
	if m := &t.members[id]; m.status == statusPending || m.status == statusLive {
		m.connected = true
	} else {
		*m = memberState{status: statusPending, connected: true}
	}
	return nil
}

// Population returns how many workers the gather phase counts towards
// MinWorkers: before the first boundary the pending ones, and on a view a
// snapshot restored its members that have handshaken again.
func (t *Tracker) Population() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	counted, n := statusPending, 0
	if t.view.Members != nil {
		counted = statusLive
	}
	for _, m := range t.members {
		if m.status == counted && m.connected {
			n++
		}
	}
	return n
}

// member returns id's record, nil for an id that never handshook or lies
// outside [0, MaxWorkers).
func (t *Tracker) member(id int) *memberState {
	if id < 0 || id >= len(t.members) || t.members[id].status == statusAbsent {
		return nil
	}
	return &t.members[id]
}

// Disconnect records that the transport lost id's connection. A live
// member stays in the view until the boundary (its rounds count as
// missed); a pending worker is dropped immediately — it never joined.
func (t *Tracker) Disconnect(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.member(id); m != nil {
		m.connected = false
		if m.status == statusPending {
			m.status = statusEvicted
		}
	}
}

// AdvanceEpoch closes the epoch: live members that disconnected or out-ran
// the missed-round streak are evicted, pending workers are admitted, and
// the new view (with its re-derived f) becomes current. It returns the new
// view plus the ids admitted and evicted at this boundary, and fails with
// ErrViewCollapsed, changing nothing, when fewer than MinWorkers members
// would remain. A boundary that admits and evicts no one keeps the previous
// view's Members slice (views are immutable) and allocates nothing.
func (t *Tracker) AdvanceEpoch() (View, []int, []int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evictAfter := t.cfg.evictAfter()
	leaves := func(m *memberState) bool { return !m.connected || m.missedStreak >= evictAfter }
	stay, join, leave := 0, 0, 0
	for i := range t.members {
		switch m := &t.members[i]; {
		case m.status == statusPending:
			join++
		case m.status != statusLive:
		case leaves(m):
			leave++
		default:
			stay++
		}
	}
	n := stay + join
	if n < t.cfg.MinWorkers {
		return View{}, nil, nil, fmt.Errorf("%w: %d live, min %d", ErrViewCollapsed, n, t.cfg.MinWorkers)
	}
	members := t.view.Members
	var admitted, evicted []int
	if join+leave > 0 {
		// One array carved into three capacity-clipped slices, filled in
		// id order, so each comes out sorted.
		buf := make([]int, n+join+leave)
		members, admitted, evicted = buf[:0:n], buf[n:n:n+join], buf[n+join:n+join]
		for id := range t.members {
			switch m := &t.members[id]; {
			case m.status == statusPending:
				m.status, m.missedStreak = statusLive, 0
				admitted = append(admitted, id)
				members = append(members, id)
			case m.status != statusLive:
			case leaves(m):
				m.status, m.missedStreak = statusEvicted, 0
				evicted = append(evicted, id)
			default:
				members = append(members, id)
			}
		}
	}
	t.epoch++
	t.view = View{Epoch: t.epoch, Members: members, F: t.cfg.F(n)}
	return t.view, admitted, evicted, nil
}

// View returns the current epoch's view (zero before the first boundary).
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view
}

// Clone deep-copies the tracker — the model checker forks one per
// explored transition so branches never share mutable state. The view is
// immutable, so the clone shares it.
func (t *Tracker) Clone() *Tracker {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Tracker{cfg: t.cfg, members: append([]memberState(nil), t.members...), view: t.view, epoch: t.epoch}
}

// stateKey canonically encodes the tracker's full state for the model
// checker's visited set. Worker ids are enumerated in order, so two
// trackers with identical logical state produce identical keys.
func (t *Tracker) stateKey() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := make([]byte, 0, 1+2*len(t.members))
	buf = append(buf, byte(t.epoch+1))
	for _, m := range t.members {
		b := byte(m.status)
		if m.connected {
			b |= 0x10
		}
		buf = append(buf, b, byte(m.missedStreak))
	}
	return string(buf)
}
