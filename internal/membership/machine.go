// Model-checked round protocol: an explicit state machine of the epoched
// parameter-server round loop, exhaustively explored for safety.
//
// This is the executable analogue of a TLA⁺ spec. The machine is the
// cross-product of the server phase (collecting within a round, committing
// at round end, advancing epochs at boundaries), per-worker lifecycle
// (offline / handshaken / crashed, driven through the real Tracker), and
// per-worker channel state (at most one round-tagged frame in flight,
// subject to the same fault classes ChanTransport injects: drop, duplicate
// and delay/reorder). Explore enumerates every interleaving of those
// events up to the configured bounds and checks three invariants in every
// reachable state:
//
//   - ledger balance: after every commit, Accepted+Missed equals the total
//     delivery slots Σ n_e over committed rounds — no slot is double
//     counted or leaked across an epoch boundary, even when duplicate or
//     stale frames race a commit;
//   - single commit per round: each round number aggregates exactly once;
//   - view ⊆ handshaken: no epoch's view ever contains a worker that did
//     not complete a handshake.
//
// The model owns only the environment — which worker sends, crashes, joins,
// and what the channel does to a frame in flight. Every server-side
// transition is the shipped code: a delivered frame goes through
// SlotTable.Deliver, the round ends in SlotTable.Commit, boundaries run
// SlotTable.Advance (Tracker.AdvanceEpoch underneath) and joins run
// Tracker.Handshake — the same calls the cluster server's round loop makes,
// so the exploration checks the protocol that runs, not a copy of it.
package membership

import (
	"fmt"
)

// ModelConfig bounds the exhaustive exploration.
type ModelConfig struct {
	// Workers is the candidate population: worker ids [0, Workers).
	Workers int
	// Rounds is the horizon: states past this many committed rounds are
	// terminal.
	Rounds int
	// Membership configures the real Tracker embedded in each state.
	Membership Config
	// LateCredit admits a frame tagged round−1 into an empty slot, the
	// PR-7 idempotent credit path. Off, such frames are discarded.
	LateCredit bool
	// MaxStates aborts a runaway exploration (0 means no limit).
	MaxStates int

	// deliver, when non-nil, replaces SlotTable.Deliver — the seam through
	// which the checker's own regression test plants a mutant on the shared
	// table's path and asserts the exploration rejects it.
	deliver func(t *SlotTable, id, tag, round int) (int, Disposition)
}

// Frame channel-state sentinel: no frame in flight.
const noFrame = -1

// workerModel is one worker's machine-visible state.
type workerModel struct {
	// connected mirrors the transport: a crashed worker has no conn and
	// its in-flight frame is lost with it.
	connected bool
	// frame is the round tag of the (at most one) submission in flight,
	// or noFrame. Lock-step workers never have two distinct frames out.
	frame int
	// dupped marks that frame's duplicate was already delivered, bounding
	// the duplication fault to one copy per frame.
	dupped bool
	// sent is the last round this worker submitted for, so a worker
	// sends at most once per round (the protocol is one frame per round).
	sent int
}

// machineState is one explored state of the round protocol.
type machineState struct {
	// table is the server's half of the state — slots, ledger and (through
	// it) the tracker — in the shipped type.
	table *SlotTable
	round int
	// workers is indexed by worker id.
	workers []workerModel
	// slots is Σ n_e over committed rounds — the ledger's right-hand side,
	// counted independently of the table's books.
	slots int
	// committed marks round numbers that already aggregated.
	committed []bool
	// started reports the initial cohort was admitted (epoch 0 exists).
	started bool
}

// clone deep-copies the state for branching.
func (s *machineState) clone() *machineState {
	return &machineState{
		table:     s.table.clone(),
		round:     s.round,
		workers:   append([]workerModel(nil), s.workers...),
		slots:     s.slots,
		committed: append([]bool(nil), s.committed...),
		started:   s.started,
	}
}

// key canonically encodes the state for the visited set. The table
// contributes the ledger's two sides, the slot fills and the fill count (a
// function of the fills unless Deliver is broken — which is exactly when the
// two states must not be merged); the credited count and the per-epoch books
// feed no transition or invariant and stay out.
func (s *machineState) key() string {
	buf := make([]byte, 0, 16+4*len(s.workers))
	t := s.table
	accepted, missed, _ := t.Totals()
	buf = append(buf, byte(s.round), byte(accepted), byte(missed), byte(t.received), byte(s.slots))
	if s.started {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, f := range t.filled {
		if f {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = append(buf, 0xFE)
	for _, w := range s.workers {
		b := byte(0)
		if w.connected {
			b |= 1
		}
		if w.dupped {
			b |= 2
		}
		buf = append(buf, b, byte(w.frame+2), byte(w.sent+2))
	}
	buf = append(buf, 0xFD)
	for _, c := range s.committed {
		if c {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf) + t.tr.stateKey()
}

// checkInvariants asserts the three model-checked safety properties.
// atCommit gates the ledger-balance check to commit points, the only
// instants at which both sides of the identity are updated.
func (s *machineState) checkInvariants(atCommit bool) error {
	if accepted, missed, _ := s.table.Totals(); atCommit && accepted+missed != s.slots {
		return fmt.Errorf("ledger imbalance at round %d: accepted %d + missed %d != slots %d",
			s.round, accepted, missed, s.slots)
	}
	tr := s.table.tr
	v := tr.View()
	for _, id := range v.Members {
		if tr.member(id) == nil {
			return fmt.Errorf("epoch %d view contains never-handshaken worker %d", v.Epoch, id)
		}
	}
	return nil
}

// deliver hands worker id's in-flight frame to the server's slot table — the
// same SlotTable.Deliver call the cluster's collect loop makes.
func (s *machineState) deliver(cfg ModelConfig, id int) {
	deliver := (*SlotTable).Deliver
	if cfg.deliver != nil {
		deliver = cfg.deliver
	}
	deliver(s.table, id, s.workers[id].frame, s.round)
}

// commit ends the round through SlotTable.Commit, grows the ledger's slot
// total by the view size, and at a boundary advances the epoch through
// SlotTable.Advance. Returns false when the machine stops
// (horizon reached or view collapsed — collapse is a liveness concern,
// not a safety violation, so the branch just terminates).
func (s *machineState) commit(cfg ModelConfig) (bool, error) {
	if s.committed[s.round] {
		return false, fmt.Errorf("round %d committed twice", s.round)
	}
	s.committed[s.round] = true
	s.slots += s.table.view.N()
	s.table.Commit()
	s.round++
	if err := s.checkInvariants(true); err != nil {
		return false, err
	}
	if s.round >= cfg.Rounds {
		return false, nil
	}
	if s.round%cfg.Membership.EpochRounds == 0 {
		if _, _, _, err := s.table.Advance(); err != nil {
			return false, nil // view collapsed: terminal, not unsafe
		}
		if err := s.checkInvariants(false); err != nil {
			return false, err
		}
	}
	return true, nil
}

// successors enumerates every enabled transition from s. Channel faults
// (drop, duplicate, delay) and churn (join, crash) are all nondeterministic
// choices here; delay needs no explicit transition because a frame simply
// remaining in flight across a commit arrives reordered into a later round.
func (s *machineState) successors(cfg ModelConfig) ([]*machineState, error) {
	var next []*machineState
	branch := func(mut func(*machineState) (bool, error)) error {
		c := s.clone()
		keep, err := mut(c)
		if err != nil {
			return err
		}
		if err := c.checkInvariants(false); err != nil {
			return err
		}
		if keep {
			next = append(next, c)
		}
		return nil
	}

	if !s.started {
		// Gather phase: workers handshake until MinWorkers are present,
		// then the server may admit epoch 0 and start round 0.
		for id := 0; id < cfg.Workers; id++ {
			if s.workers[id].connected {
				continue
			}
			id := id
			if err := branch(func(c *machineState) (bool, error) {
				if err := c.table.tr.Handshake(id); err != nil {
					return false, err // ids lie in [0, MaxWorkers): never refused
				}
				c.workers[id].connected = true
				return true, nil
			}); err != nil {
				return nil, err
			}
		}
		if s.table.tr.Population() >= cfg.Membership.MinWorkers {
			if err := branch(func(c *machineState) (bool, error) {
				if _, _, _, err := c.table.Advance(); err != nil {
					return false, nil
				}
				c.started = true
				return true, nil
			}); err != nil {
				return nil, err
			}
		}
		return next, nil
	}

	for id := 0; id < cfg.Workers; id++ {
		w := s.workers[id]
		id := id
		if !w.connected {
			// JOIN (or rejoin): handshake mid-run; admitted at a boundary.
			if err := branch(func(c *machineState) (bool, error) {
				if err := c.table.tr.Handshake(id); err != nil {
					return false, err
				}
				c.workers[id].connected = true
				c.workers[id].frame = noFrame
				c.workers[id].dupped = false
				return true, nil
			}); err != nil {
				return nil, err
			}
			continue
		}
		// CRASH: the transport drops the worker; its in-flight frame is
		// lost with the connection.
		if err := branch(func(c *machineState) (bool, error) {
			c.table.tr.Disconnect(id)
			c.workers[id].connected = false
			c.workers[id].frame = noFrame
			c.workers[id].dupped = false
			return true, nil
		}); err != nil {
			return nil, err
		}
		if w.frame == noFrame {
			// SEND: a live member submits for the current round (at most
			// once per round — the protocol is lock-step).
			if s.table.view.Contains(id) && w.sent < s.round {
				if err := branch(func(c *machineState) (bool, error) {
					c.workers[id].frame = c.round
					c.workers[id].dupped = false
					c.workers[id].sent = c.round
					return true, nil
				}); err != nil {
					return nil, err
				}
			}
			continue
		}
		// DELIVER: the frame reaches the server and is consumed.
		if err := branch(func(c *machineState) (bool, error) {
			c.deliver(cfg, id)
			c.workers[id].frame = noFrame
			c.workers[id].dupped = false
			return true, nil
		}); err != nil {
			return nil, err
		}
		// DROP: the channel loses the frame.
		if err := branch(func(c *machineState) (bool, error) {
			c.workers[id].frame = noFrame
			c.workers[id].dupped = false
			return true, nil
		}); err != nil {
			return nil, err
		}
		// DUP: a copy is delivered while the original stays in flight —
		// the second arrival must be discarded by the idempotent path.
		// Bounded to one duplicate per frame to keep the space finite.
		if !w.dupped {
			if err := branch(func(c *machineState) (bool, error) {
				c.deliver(cfg, id)
				c.workers[id].dupped = true
				return true, nil
			}); err != nil {
				return nil, err
			}
		}
	}

	// COMMIT: the round deadline fires. It is enabled at any fill count —
	// timeouts are the protocol's fundamental nondeterminism — which
	// subsumes quorum-triggered commits at every threshold.
	if err := branch(func(c *machineState) (bool, error) {
		return c.commit(cfg)
	}); err != nil {
		return nil, err
	}
	return next, nil
}

// ExploreResult summarizes an exhaustive exploration.
type ExploreResult struct {
	// States is the number of distinct reachable states visited.
	States int
	// Transitions is the number of edges traversed.
	Transitions int
	// Commits counts commit transitions taken (a proxy for how much of
	// the horizon the exploration actually reached).
	Commits int
}

// Explore exhaustively enumerates every reachable state of the round
// protocol under cfg's bounds, checking the safety invariants in each.
// It returns the exploration size, or the first invariant violation. The
// model-checking tests are its callers; the cluster and the simulator run
// the machine it checks.
//
//dpbyz:testseam
func Explore(cfg ModelConfig) (ExploreResult, error) {
	if cfg.Workers < 1 || cfg.Workers > cfg.Membership.MaxWorkers {
		return ExploreResult{}, fmt.Errorf("model: workers %d outside [1, max %d]",
			cfg.Workers, cfg.Membership.MaxWorkers)
	}
	if cfg.Rounds < 1 {
		return ExploreResult{}, fmt.Errorf("model: rounds %d below 1", cfg.Rounds)
	}
	tr, err := NewTracker(cfg.Membership)
	if err != nil {
		return ExploreResult{}, err
	}
	init := &machineState{
		table:     NewSlotTable(tr, cfg.LateCredit),
		workers:   make([]workerModel, cfg.Workers),
		committed: make([]bool, cfg.Rounds),
	}
	for i := range init.workers {
		init.workers[i].frame = noFrame
		init.workers[i].sent = -1
	}
	var res ExploreResult
	visited := map[string]bool{init.key(): true}
	queue := []*machineState{init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		res.States++
		if cfg.MaxStates > 0 && res.States > cfg.MaxStates {
			return res, fmt.Errorf("model: exceeded %d states", cfg.MaxStates)
		}
		succ, err := s.successors(cfg)
		if err != nil {
			return res, err
		}
		for _, n := range succ {
			res.Transitions++
			if n.round > s.round {
				res.Commits++
			}
			k := n.key()
			if visited[k] {
				continue
			}
			visited[k] = true
			queue = append(queue, n)
		}
	}
	return res, nil
}
