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
// RecordAccept / RecordMiss / AdvanceEpoch events: two trackers fed the
// same event sequence produce identical views. On top of it the SlotTable
// (slots.go) is the round protocol's decision point — which frame fills
// which slot, which is discarded and why, what a commit books — and the
// boundary that advances the tracker.
//
// What is shared, precisely: the cluster server's one round loop and the
// model checker in machine.go both execute the Tracker and the SlotTable —
// the server from real connection events (inherently timing-dependent), the
// checker from exhaustively enumerated interleavings of sends, drops,
// duplicates, delays, crashes and joins — so the explored transitions are
// the shipped ones. A fixed worker cohort is not a second protocol: it is
// the population that never changes (MinWorkers = MaxWorkers = n, one epoch
// spanning the run). The local simulator shares only the books' arithmetic —
// the EpochStat ledger and the BalanceEpochs identity it must satisfy: its
// deterministic arrival model decides which workers straggle on a cohort
// that never churns, not what happens to a frame, and does not run the
// tracker or the slot table.
//
//dpbyz:deterministic
package membership

import (
	"errors"
	"fmt"
	"sort"
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
	i := sort.SearchInts(v.Members, id)
	return i < len(v.Members) && v.Members[i] == id
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
	// ErrAtCapacity rejects a handshake beyond MaxWorkers.
	ErrAtCapacity = errors.New("membership: population at max workers")
	// ErrBadWorkerID rejects an id outside [0, MaxWorkers).
	ErrBadWorkerID = errors.New("membership: worker id outside [0, max)")
)

// status is a tracked worker's lifecycle position.
type status uint8

const (
	statusPending status = iota // handshaken, waiting for a boundary
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
	mu      sync.Mutex
	cfg     Config
	members map[int]*memberState
	// handshaken records every id that ever completed a handshake — the
	// model-checked safety invariant is view ⊆ handshaken.
	handshaken map[int]bool
	view       View
	epoch      int
}

// NewTracker validates cfg and returns an empty tracker (epoch −1: the
// first AdvanceEpoch call admits the initial cohort as epoch 0).
func NewTracker(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		cfg:        cfg,
		members:    make(map[int]*memberState),
		handshaken: make(map[int]bool),
		epoch:      -1,
	}, nil
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
	m, ok := t.members[id]
	if ok && m.status != statusEvicted {
		m.connected = true
		return nil
	}
	if t.populationLocked() >= t.cfg.MaxWorkers {
		return fmt.Errorf("%w: %d", ErrAtCapacity, t.cfg.MaxWorkers)
	}
	t.members[id] = &memberState{status: statusPending, connected: true}
	t.handshaken[id] = true
	return nil
}

// populationLocked counts the non-evicted ids (live + pending).
func (t *Tracker) populationLocked() int {
	n := 0
	for _, m := range t.members {
		if m.status != statusEvicted {
			n++
		}
	}
	return n
}

// Population returns the live + pending count (the gather phase waits on
// it reaching MinWorkers).
func (t *Tracker) Population() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.populationLocked()
}

// Disconnect records that the transport lost id's connection. A live
// member stays in the view until the boundary (its rounds count as
// missed); a pending worker is dropped immediately — it never joined.
func (t *Tracker) Disconnect(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[id]
	if !ok {
		return
	}
	m.connected = false
	if m.status == statusPending {
		m.status = statusEvicted
	}
}

// RecordAccept resets id's missed streak after its submission entered a
// round's aggregation.
//
//dpbyz:hotpath
func (t *Tracker) RecordAccept(id int) {
	t.mu.Lock()
	if m, ok := t.members[id]; ok {
		m.missedStreak = 0
	}
	t.mu.Unlock()
}

// RecordMiss advances id's missed streak after its slot was zero-padded.
//
//dpbyz:hotpath
func (t *Tracker) RecordMiss(id int) {
	t.mu.Lock()
	if m, ok := t.members[id]; ok {
		m.missedStreak++
	}
	t.mu.Unlock()
}

// AdvanceEpoch closes the epoch: live members that disconnected or out-ran
// the missed-round streak are evicted, pending workers are admitted, and
// the new view (with its re-derived f) becomes current. It returns the new
// view plus the ids admitted and evicted at this boundary, and fails with
// ErrViewCollapsed when fewer than MinWorkers members would remain.
func (t *Tracker) AdvanceEpoch() (View, []int, []int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evictAfter := t.cfg.evictAfter()
	var admitted, evicted, members []int
	// Order-insensitive: per-member status updates are keyed by id and the
	// collected slices are sorted below before anything reads them.
	for id, m := range t.members { //dpbyz:orderedmap
		switch m.status {
		case statusLive:
			if !m.connected || m.missedStreak >= evictAfter {
				m.status = statusEvicted
				m.missedStreak = 0
				evicted = append(evicted, id)
				continue
			}
			members = append(members, id)
		case statusPending:
			m.status = statusLive
			m.missedStreak = 0
			admitted = append(admitted, id)
			members = append(members, id)
		}
	}
	// Map iteration feeds results only through these sorts: the returned
	// view and deltas are order-canonical regardless of iteration order.
	sort.Ints(admitted)
	sort.Ints(evicted)
	sort.Ints(members)
	if len(members) < t.cfg.MinWorkers {
		return View{}, nil, nil, fmt.Errorf("%w: %d live, min %d",
			ErrViewCollapsed, len(members), t.cfg.MinWorkers)
	}
	t.epoch++
	t.view = View{Epoch: t.epoch, Members: members, F: t.cfg.F(len(members))}
	return t.view, admitted, evicted, nil
}

// View returns the current epoch's view (zero before the first boundary).
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view
}

// Handshaken returns every id that ever completed a handshake, sorted.
func (t *Tracker) Handshaken() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.handshaken))
	for id := range t.handshaken {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Clone deep-copies the tracker — the model checker forks one per
// explored transition so branches never share mutable state.
func (t *Tracker) Clone() *Tracker {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Tracker{
		cfg:        t.cfg,
		members:    make(map[int]*memberState, len(t.members)),
		handshaken: make(map[int]bool, len(t.handshaken)),
		view:       View{Epoch: t.view.Epoch, Members: append([]int(nil), t.view.Members...), F: t.view.F},
		epoch:      t.epoch,
	}
	// Order-insensitive: each member is copied into the clone's map under
	// its own id; no cross-member state is accumulated.
	for id, m := range t.members { //dpbyz:orderedmap
		mc := *m
		c.members[id] = &mc
	}
	for id := range t.handshaken {
		c.handshaken[id] = true
	}
	return c
}

// stateKey canonically encodes the tracker's full state for the model
// checker's visited set. Worker ids are enumerated in order, so two
// trackers with identical logical state produce identical keys.
func (t *Tracker) stateKey() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := make([]byte, 0, 4+6*t.cfg.MaxWorkers)
	buf = append(buf, byte(t.epoch+1))
	for id := 0; id < t.cfg.MaxWorkers; id++ {
		m, ok := t.members[id]
		if !ok {
			buf = append(buf, 0xFF)
			continue
		}
		b := byte(m.status)
		if m.connected {
			b |= 0x10
		}
		buf = append(buf, b, byte(m.missedStreak))
		if t.handshaken[id] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf)
}
