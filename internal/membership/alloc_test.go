//go:build !race

package membership

import "testing"

// fleetShape is the fleet sweep's per-run cohort: every local run holds one
// tracker and one slot table, so what they allocate is paid once per run.
const (
	fleetN      = 8
	fleetSteps  = 100
	fleetEpochs = 5
)

func fleetTable(t *testing.T) *SlotTable {
	t.Helper()
	tr, err := NewTracker(Config{MinWorkers: fleetN, MaxWorkers: fleetN, FRatio: 0.25,
		EpochRounds: fleetSteps / fleetEpochs, EvictAfter: fleetSteps + 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < fleetN; id++ {
		if err := tr.Handshake(id); err != nil {
			t.Fatal(err)
		}
	}
	return NewSlotTable(tr, true)
}

// The round path allocates nothing, a boundary over an unchanged cohort
// allocates nothing, and setting a cohort up costs a fixed handful: the
// tracker, its id-indexed records, the table and its slot index.
func TestSlotTableAllocs(t *testing.T) {
	if setup := testing.AllocsPerRun(100, func() { fleetTable(t) }); setup > 4 {
		t.Errorf("NewTracker + %d handshakes + NewSlotTable allocs = %v, want at most 4", fleetN, setup)
	}

	tb := fleetTable(t)
	if _, _, _, err := tb.Advance(); err != nil {
		t.Fatal(err)
	}
	round := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for id := 0; id < fleetN; id++ {
			tb.Deliver(id, round-1, round) // stale, or an empty-slot credit
			tb.Deliver(id, round, round)
		}
		tb.Commit()
		round++
	}); allocs != 0 {
		t.Errorf("Deliver + Commit allocs per round = %v, want 0", allocs)
	}

	// No rounds between boundaries: nothing to close, so this is the
	// tracker's advance and the slot layout alone.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := tb.Advance(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Advance over an unchanged cohort allocs = %v, want 0", allocs)
	}
}

// A whole fleet-shaped run — setup, every round, every boundary and the
// books read at the end — fits the benchmark's allocation budget for the
// round machine: 0.12 allocations per round.
func TestSlotTableFleetRunBudget(t *testing.T) {
	const budget = fleetSteps * 12 / 100
	allocs := testing.AllocsPerRun(20, func() {
		tb := fleetTable(t)
		for step := 0; step < fleetSteps; step++ {
			if step%(fleetSteps/fleetEpochs) == 0 {
				if _, _, _, err := tb.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			for id := 0; id < fleetN; id++ {
				tb.Deliver(id, step, step)
			}
			tb.Commit()
		}
		if got := len(tb.Epochs()); got != fleetEpochs {
			t.Fatalf("%d epochs booked, want %d", got, fleetEpochs)
		}
	})
	t.Logf("round machine allocations per %d-round run: %v", fleetSteps, allocs)
	if allocs > budget {
		t.Errorf("fleet-shaped run allocates %v, budget %d", allocs, budget)
	}
}
