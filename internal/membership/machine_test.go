package membership

import "testing"

// TestModelCheckRoundProtocol exhaustively explores the round/epoch state
// machine under every interleaving of the ChanTransport fault classes
// (drop, duplicate, delay-past-commit) with churn (join, crash, rejoin),
// proving the three safety invariants — ledger balance, single commit per
// round, view ⊆ handshaken — over the full bounded state space. Each
// bound set stresses a different corner: boundary-every-round churn,
// multi-round epochs with the late-credit path, and a capacity-limited
// population where joins race evictions.
func TestModelCheckRoundProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	cases := []struct {
		name string
		cfg  ModelConfig
	}{
		{
			// Epoch boundary after every round: maximal view churn.
			name: "boundary-every-round",
			cfg: ModelConfig{
				Workers: 3, Rounds: 3, LateCredit: true,
				Membership: Config{MinWorkers: 1, MaxWorkers: 3, FRatio: 0.34, EpochRounds: 1, EvictAfter: 1},
			},
		},
		{
			// Two-round epochs: frames delayed across a commit arrive as
			// round−1 duplicates/credits inside the same view.
			name: "two-round-epochs-late-credit",
			cfg: ModelConfig{
				Workers: 2, Rounds: 4, LateCredit: true,
				Membership: Config{MinWorkers: 1, MaxWorkers: 2, FRatio: 0.4, EpochRounds: 2, EvictAfter: 2},
			},
		},
		{
			// Credit path off: every stale frame must be discarded.
			name: "no-late-credit",
			cfg: ModelConfig{
				Workers: 2, Rounds: 3, LateCredit: false,
				Membership: Config{MinWorkers: 1, MaxWorkers: 2, FRatio: 0, EpochRounds: 1, EvictAfter: 1},
			},
		},
		{
			// Population at capacity: rejoins only fit after evictions.
			name: "capacity-pressure",
			cfg: ModelConfig{
				Workers: 3, Rounds: 2, LateCredit: true,
				Membership: Config{MinWorkers: 2, MaxWorkers: 3, FRatio: 0.34, EpochRounds: 1, EvictAfter: 1},
			},
		},
	}
	total := 0
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MaxStates = 5_000_000
			res, err := Explore(tc.cfg)
			if err != nil {
				t.Fatalf("safety violation after %d states: %v", res.States, err)
			}
			if res.States < 1_000 {
				t.Fatalf("exploration suspiciously small: %d states (bounds too tight to mean anything)", res.States)
			}
			if res.Commits == 0 {
				t.Fatal("no commit transition ever taken; model wired wrong")
			}
			t.Logf("explored %d states, %d transitions, %d commits", res.States, res.Transitions, res.Commits)
			total += res.States
		})
	}
	t.Logf("total states across bound sets: %d", total)
}

// TestModelCheckCatchesSeededBugs plants known protocol bugs in mutated
// transition rules and asserts the exploration actually detects them —
// the model checker's own regression test, so a future refactor cannot
// quietly neuter the invariants.
func TestModelCheckCatchesSeededBugs(t *testing.T) {
	cfg := ModelConfig{
		Workers: 2, Rounds: 3, LateCredit: true, MaxStates: 2_000_000,
		Membership: Config{MinWorkers: 1, MaxWorkers: 2, FRatio: 0, EpochRounds: 1, EvictAfter: 1},
	}
	// started builds the state right after worker 0 was admitted as epoch 0.
	started := func() *machineState {
		tr, err := NewTracker(cfg.Membership)
		if err != nil {
			t.Fatal(err)
		}
		s := &machineState{
			table:     NewSlotTable(tr, cfg.LateCredit),
			workers:   make([]workerModel, cfg.Workers),
			committed: make([]bool, cfg.Rounds),
			started:   true,
		}
		if err := tr.Handshake(0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.table.Advance(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Bug 1: a state whose view contains a worker that never handshook.
	s := started()
	s.table.tr.view.Members = append(s.table.tr.view.Members, 1) // forged member
	if err := s.checkInvariants(false); err == nil {
		t.Fatal("forged view member not detected")
	}

	// Bug 2: double commit of the same round.
	s2 := started()
	if _, err := s2.commit(cfg); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	s2.round-- // protocol bug: round counter rewinds
	if _, err := s2.commit(cfg); err == nil {
		t.Fatal("double commit not detected")
	}

	// Bug 3: a leaked slot (a fill counted without a filled slot) breaks the
	// ledger at the next commit.
	s3 := started()
	s3.table.received++ // double-counted submission
	if _, err := s3.commit(cfg); err == nil {
		t.Fatal("ledger leak not detected")
	}

	// Bugs 4 and 5 sit on the shared table's own path: the mutant wraps
	// SlotTable.Deliver — the call the cluster server's collect loop makes —
	// and the full exploration, not a hand-built state, has to reject it.
	// That is the proof the checker runs the code the server runs.
	mutants := []struct {
		name    string
		deliver func(*SlotTable, int, int, int) (int, Disposition)
	}{
		{"credit into an already-filled slot", func(tb *SlotTable, id, tag, round int) (int, Disposition) {
			slot, d := tb.Deliver(id, tag, round)
			if d == Duplicate && tag == round-1 {
				tb.received++
				tb.credited++
				return slot, Credited
			}
			return slot, d
		}},
		{"accept booked without filling the slot", func(tb *SlotTable, id, tag, round int) (int, Disposition) {
			slot, d := tb.Deliver(id, tag, round)
			if d == Accepted {
				tb.filled[slot] = false
			}
			return slot, d
		}},
	}
	// Two-round epochs: a frame delayed across a commit must still find its
	// sender in the view, or the late-credit path is never reached.
	mcfg := ModelConfig{
		Workers: 2, Rounds: 4, LateCredit: true, MaxStates: 2_000_000,
		Membership: Config{MinWorkers: 1, MaxWorkers: 2, FRatio: 0.4, EpochRounds: 2, EvictAfter: 2},
	}
	if _, err := Explore(mcfg); err != nil {
		t.Fatalf("unmutated table rejected under the mutants' bounds: %v", err)
	}
	for _, m := range mutants {
		mcfg.deliver = m.deliver
		if res, err := Explore(mcfg); err == nil {
			t.Errorf("mutant %q survived the exploration (%d states)", m.name, res.States)
		} else {
			t.Logf("mutant %q rejected after %d states: %v", m.name, res.States, err)
		}
	}
}
