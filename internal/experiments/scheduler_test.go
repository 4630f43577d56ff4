package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// schedScale is small enough that a whole grid runs in well under a second.
func schedScale() Scale {
	return Scale{Steps: 30, Seeds: 2, DatasetSize: 600, Features: 8}
}

// The scheduler's determinism contract: a figure's cells must be
// bit-identical at every Workers setting, including the serial order.
func TestParallelSchedulerBitIdenticalToSerial(t *testing.T) {
	results := make([][]CellResult, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		cells, err := Run(context.Background(), Figure2(schedScale()), Sched{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, cells)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("cells differ between Workers=1 and Workers=%d", []int{1, 3, 8}[i])
		}
	}
}

// Same contract for the ε sweep scheduler.
func TestEpsilonSweepSchedulerBitIdentical(t *testing.T) {
	run := func(workers int) []CellResult {
		cells, err := Run(context.Background(), pick(EpsilonSweep(schedScale()), 2, 3), Sched{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cells
	}
	if serial, par := run(1), run(4); !reflect.DeepEqual(serial, par) {
		t.Fatal("epsilon sweep differs between serial and parallel scheduling")
	}
}

// The contract holds for every sweep, not only the three above: each
// returns the same cells, bit for bit, from the serial scheduler and from a
// three-wide one, and each gives up with context.Canceled on a cancelled
// context. The staleness and spec-cell cases also pin what those two sweeps
// promise beyond that.
func TestSweepsWidthInvariant(t *testing.T) {
	scale := schedScale()
	ledgerBalances := func(t *testing.T, sw Sweep, cells []CellResult) {
		for i, c := range cells {
			s := sw.Rows[i].Spec.Staleness.Stragglers
			if want := scale.Seeds * PaperWorkers * scale.Steps; c.Accepted+c.Missed != want {
				t.Errorf("%s: accepted %d + missed %d != seeds·n·steps = %d", c.Label, c.Accepted, c.Missed, want)
			}
			if c.Credited > c.Accepted {
				t.Errorf("%s: credited %d > accepted %d", c.Label, c.Credited, c.Accepted)
			}
			if s == 0 && c.Missed != 0 {
				t.Errorf("%s: missed %d in the synchronous baseline", c.Label, c.Missed)
			}
		}
	}
	// Late frames discarded, at s = 0 and s = 3 for mda.
	discard := pick(StalenessSweep(scale), 0, 3)
	for i := range discard.Rows {
		st := *discard.Rows[i].Spec.Staleness
		st.Late = "discard"
		discard.Rows[i].Spec.Staleness = &st
	}
	// The spec cell of the Fig. 2 alie+dp row, carrying its own seed.
	specCell := func(ownSeed uint64, seeds int) Sweep {
		s := Figure2(scale).Rows[3].Spec
		s.Seed = ownSeed
		return SpecCell(s, seeds)
	}
	for _, tc := range []struct {
		name  string
		sweep Sweep
		check func(t *testing.T, sw Sweep, cells []CellResult)
	}{
		{name: "figure", sweep: Figure2(scale)},
		{name: "epssweep", sweep: pick(EpsilonSweep(scale), 2, 3)},
		{name: "hetsweep", sweep: pick(HeterogeneitySweep(scale), 0, 3)},
		{name: "stalesweep-credit", sweep: pick(StalenessSweep(scale), 0, 2, 4, 6), check: func(t *testing.T, sw Sweep, cells []CellResult) {
			ledgerBalances(t, sw, cells)
			if c := cells[1]; c.Credited == 0 {
				t.Errorf("%s: nothing credited although late frames are credited", c.Label)
			}
		}},
		{name: "stalesweep-discard", sweep: discard, check: func(t *testing.T, sw Sweep, cells []CellResult) {
			ledgerBalances(t, sw, cells)
			for _, c := range cells {
				if c.Credited != 0 {
					t.Errorf("%s: credited %d although late frames are discarded", c.Label, c.Credited)
				}
			}
		}},
		{name: "speccell", sweep: specCell(7, 3), check: func(t *testing.T, _ Sweep, got []CellResult) {
			cell := func(ownSeed uint64, seeds int) CellResult {
				cells, err := Run(context.Background(), specCell(ownSeed, seeds), Sched{})
				if err != nil {
					t.Fatal(err)
				}
				return cells[0]
			}
			// Seeds: k replaces the Spec's own seed with 1..k.
			if !reflect.DeepEqual(got[0], cell(99, 3)) {
				t.Error("Seeds: 3 depends on the Spec's own seed")
			}
			if !reflect.DeepEqual(cell(7, 1), cell(1, 0)) {
				t.Error("Seeds: 1 is not the single run at seed 1")
			}
			// Seeds: 0 is one run at the Spec's own seed.
			if reflect.DeepEqual(cell(7, 0), cell(1, 0)) {
				t.Error("Seeds: 0 ignored the Spec's own seed")
			}
			if std := cell(7, 0).FinalAccStd; std != 0 {
				t.Errorf("Seeds: 0 aggregated more than one run (final accuracy std %v)", std)
			}
		}},
		// The b = 10 and b = 250 rows of the crossover grid.
		{name: "crossover", sweep: pick(CrossoverSweep(scale), 0, 1, 2, 3, 16, 17, 18, 19), check: func(t *testing.T, sw Sweep, cells []CellResult) {
			res, err := Crossover(sw, cells)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != 2 || res.Points[0].BatchSize != 10 || res.Points[1].BatchSize != 250 {
				t.Errorf("crossover points %+v, want b = 10 and 250", res.Points)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := Run(context.Background(), tc.sweep, Sched{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := Run(context.Background(), tc.sweep, Sched{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Fatal("result differs between Workers=1 and Workers=3")
			}
			if tc.check != nil {
				tc.check(t, tc.sweep, serial)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := Run(ctx, tc.sweep, Sched{Workers: 3}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: error = %v, want context.Canceled", err)
			}
		})
	}
}

// Progress must fire once per cell and count every cell exactly once, for a
// figure and for the crossover alike.
func TestSchedulerProgressCounts(t *testing.T) {
	for _, sw := range []Sweep{Figure2(schedScale()), pick(CrossoverSweep(schedScale()), 0, 1, 2, 3)} {
		var calls atomic.Int64
		var sawTotal atomic.Int64
		sched := Sched{
			Workers: 2,
			Progress: func(done, total int, label string) {
				calls.Add(1)
				sawTotal.Store(int64(total))
				if label == "" {
					t.Error("empty progress label")
				}
			},
		}
		if _, err := Run(context.Background(), sw, sched); err != nil {
			t.Fatal(err)
		}
		want := int64(len(sw.Rows) * sw.Seeds)
		if calls.Load() != want || sawTotal.Load() != want {
			t.Fatalf("%s: progress calls = %d (total %d), want %d", sw.ID, calls.Load(), sawTotal.Load(), want)
		}
	}
}

// Cancelling after the first completed cell must abort the grid promptly —
// without running the remaining cells to completion — and leak no
// goroutines (the -race run of this test is the leak detector the issue
// asks for).
func TestRunFigureCancelMidGrid(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scale := schedScale()
	scale.Steps = 4000 // long enough that 12 uncancelled cells would be slow
	var completed atomic.Int64
	sched := Sched{
		Workers: 3,
		Progress: func(done, total int, label string) {
			completed.Add(1)
			cancel()
		},
	}
	start := time.Now()
	cells, err := Run(ctx, Figure2(scale), sched)
	elapsed := time.Since(start)
	if err == nil || cells != nil {
		t.Fatalf("cancelled grid returned cells=%v err=%v", cells, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// The grid has 12 cells; only the handful in flight at cancel time may
	// finish.
	if n := completed.Load(); n >= 12 {
		t.Fatalf("all %d cells completed despite cancellation", n)
	}
	// Prompt: nowhere near the time 12 cells of 4000 steps would take.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// No goroutine leak: the pool joins all workers before returning.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d at start, %d after cancelled grid",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A pre-cancelled context must fail fast without touching any cell.
func TestRunFigureCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Figure2(schedScale()), Sched{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
