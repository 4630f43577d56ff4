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

// The scheduler's determinism contract: the FigureResult must be
// bit-identical at every Workers setting, including the serial order.
func TestParallelSchedulerBitIdenticalToSerial(t *testing.T) {
	results := make([]*FigureResult, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		spec := Figure2(schedScale())
		spec.Sched = Sched{Workers: workers}
		res, err := RunFigure(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Cells, results[i].Cells) {
			t.Fatalf("cells differ between Workers=1 and Workers=%d", []int{1, 3, 8}[i])
		}
	}
}

// Same contract for the ε sweep scheduler.
func TestEpsilonSweepSchedulerBitIdentical(t *testing.T) {
	run := func(workers int) []EpsilonPoint {
		points, err := RunEpsilonSweep(context.Background(), EpsilonSweepSpec{
			Epsilons: []float64{0.3, 0.9},
			Scale:    schedScale(),
			Sched:    Sched{Workers: workers},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return points
	}
	if serial, par := run(1), run(4); !reflect.DeepEqual(serial, par) {
		t.Fatal("epsilon sweep differs between serial and parallel scheduling")
	}
}

// The contract holds for every grid driver, not only the three above: each
// returns the same value, bit for bit, from the serial scheduler and from a
// three-wide one, and each gives up with context.Canceled on a cancelled
// context. The staleness and spec-cell cases also pin what those two drivers
// promise beyond that.
func TestSweepsWidthInvariant(t *testing.T) {
	scale := schedScale()
	ledgerBalances := func(t *testing.T, p StalenessPoint) {
		if want := scale.Seeds * PaperWorkers * scale.Steps; p.Accepted+p.Missed != want {
			t.Errorf("%s s=%d: accepted %d + missed %d != seeds·n·steps = %d",
				p.GAR, p.Stragglers, p.Accepted, p.Missed, want)
		}
		if p.Credited > p.Accepted {
			t.Errorf("%s s=%d: credited %d > accepted %d", p.GAR, p.Stragglers, p.Credited, p.Accepted)
		}
		if p.Stragglers == 0 && p.Missed != 0 {
			t.Errorf("%s s=0: missed %d in the synchronous baseline", p.GAR, p.Missed)
		}
	}
	specCell := func(ctx context.Context, s Sched, ownSeed uint64, seeds int) (*CellResult, error) {
		run := CellSpec(Figure2(scale), Condition{Label: "alie+dp", AttackName: "alie", DP: true}, int(ownSeed))
		return RunSpecCell(ctx, SpecCellConfig{Run: run, Seeds: seeds, Sched: s})
	}
	for _, tc := range []struct {
		name  string
		run   func(ctx context.Context, s Sched) (any, error)
		check func(t *testing.T, got any)
	}{
		{name: "figure", run: func(ctx context.Context, s Sched) (any, error) {
			spec := Figure2(scale)
			spec.Sched = s
			res, err := RunFigure(ctx, spec)
			if err != nil {
				return nil, err
			}
			return res.Cells, nil
		}},
		{name: "epssweep", run: func(ctx context.Context, s Sched) (any, error) {
			return RunEpsilonSweep(ctx, EpsilonSweepSpec{Epsilons: []float64{0.3, 0.9}, Scale: scale, Sched: s})
		}},
		{name: "hetsweep", run: func(ctx context.Context, s Sched) (any, error) {
			return RunHeterogeneitySweep(ctx, HeterogeneitySweepSpec{Betas: []float64{0.2, 5}, Scale: scale, Sched: s})
		}},
		{name: "stalesweep-credit", run: func(ctx context.Context, s Sched) (any, error) {
			return RunStalenessSweep(ctx, StalenessSweepSpec{
				Stragglers: []int{0, 2}, GARNames: []string{"mda", "trimmedmean"}, Scale: scale, Sched: s,
			})
		}, check: func(t *testing.T, got any) {
			for _, p := range got.([]StalenessPoint) {
				ledgerBalances(t, p)
			}
		}},
		{name: "stalesweep-discard", run: func(ctx context.Context, s Sched) (any, error) {
			return RunStalenessSweep(ctx, StalenessSweepSpec{
				Stragglers: []int{0, 3}, Late: "discard", Scale: scale, Sched: s,
			})
		}, check: func(t *testing.T, got any) {
			for _, p := range got.([]StalenessPoint) {
				ledgerBalances(t, p)
				if p.Credited != 0 {
					t.Errorf("s=%d: credited %d although late frames are discarded", p.Stragglers, p.Credited)
				}
			}
		}},
		{name: "speccell", run: func(ctx context.Context, s Sched) (any, error) {
			return specCell(ctx, s, 7, 3)
		}, check: func(t *testing.T, got any) {
			cell := func(ownSeed uint64, seeds int) *CellResult {
				c, err := specCell(context.Background(), Sched{}, ownSeed, seeds)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			// Seeds: k replaces the Spec's own seed with 1..k.
			if !reflect.DeepEqual(got, cell(99, 3)) {
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
		{name: "crossover", run: func(ctx context.Context, s Sched) (any, error) {
			// CrossoverSpec has no Sched: its grid runs GOMAXPROCS wide.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.Workers))
			return RunCrossover(ctx, CrossoverSpec{BatchSizes: []int{10, 200}, Scale: scale})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.run(context.Background(), Sched{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := tc.run(context.Background(), Sched{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Fatal("result differs between Workers=1 and Workers=3")
			}
			if tc.check != nil {
				tc.check(t, serial)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := tc.run(ctx, Sched{Workers: 3}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: error = %v, want context.Canceled", err)
			}
		})
	}
}

// Progress must fire once per cell and count every cell exactly once.
func TestSchedulerProgressCounts(t *testing.T) {
	spec := Figure2(schedScale())
	var calls atomic.Int64
	var sawTotal atomic.Int64
	spec.Sched = Sched{
		Workers: 2,
		Progress: func(done, total int, label string) {
			calls.Add(1)
			sawTotal.Store(int64(total))
			if label == "" {
				t.Error("empty progress label")
			}
		},
	}
	if _, err := RunFigure(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	want := int64(len(Grid()) * spec.Scale.seeds())
	if calls.Load() != want || sawTotal.Load() != want {
		t.Fatalf("progress calls = %d (total %d), want %d", calls.Load(), sawTotal.Load(), want)
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
	spec := Figure2(scale)
	var completed atomic.Int64
	spec.Sched = Sched{
		Workers: 3,
		Progress: func(done, total int, label string) {
			completed.Add(1)
			cancel()
		},
	}
	start := time.Now()
	res, err := RunFigure(ctx, spec)
	elapsed := time.Since(start)
	if err == nil || res != nil {
		t.Fatalf("cancelled grid returned res=%v err=%v", res, err)
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
	spec := Figure2(schedScale())
	if _, err := RunFigure(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
