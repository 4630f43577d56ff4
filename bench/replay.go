package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/experiments"
	"dpbyz/internal/fleet"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/randx"
	"dpbyz/internal/spec"
	"dpbyz/internal/vecmath"
)

// Replays time the layers that offer no seam to wrap, by calling their
// public functions at the workload's own shape.

// shape is the (n, f, d) of a workload's aggregation.
type shape struct{ n, f, d int }

func shapeOf(s *spec.Spec, dim int) shape { return shape{n: s.GAR.N, f: s.GAR.F, d: dim} }

// replayBudget bounds one replay; each also makes at least replayMinCalls
// calls, so that a slow call (a d = 10⁴ Gram pass) is still a median of
// several.
const (
	replayBudget   = 150 * time.Millisecond
	replayMinCalls = 5
)

// timeCalls calls fn until the budget is spent and returns the median
// duration of a call.
func timeCalls(fn func()) time.Duration {
	var durs []float64
	t0 := time.Now()
	for len(durs) < replayMinCalls || time.Since(t0) < replayBudget {
		c0 := time.Now()
		fn()
		durs = append(durs, float64(time.Since(c0)))
	}
	return time.Duration(median(durs))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// randomGrads returns n seed-derived Gaussian vectors of dimension d.
func randomGrads(sh shape, seed uint64) [][]float64 {
	rng := randx.New(seed)
	vs := make([][]float64, sh.n)
	for i := range vs {
		vs[i] = rng.NormalVec(make([]float64, sh.d), 1)
	}
	return vs
}

// replayShared fills the replay metrics every workload has: randx, gar,
// vecmath, membership, spec and experiments at the workload's shape.
func replayShared(ctx context.Context, out metricSet, s spec.Spec, sh shape, seed uint64, runOpts ...spec.Option) error {
	// randx: one block of d variates per call.
	rng := randx.New(seed)
	buf := make([]float64, sh.d)
	out.layer("randx.normal_ns_per_variate", float64(timeCalls(func() { rng.NormalVec(buf, 1) }))/float64(sh.d))

	// gar: allocations of a steady-state aggregation (the first call fills
	// the rule's pools and is not counted).
	rule, err := s.NewGARFactory()(sh.n, sh.f)
	if err != nil {
		return err
	}
	grads := randomGrads(sh, seed)
	dst := make([]float64, sh.d)
	if err := gar.AggregateInto(rule, dst, grads); err != nil {
		return err
	}
	const garCalls = 5
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < garCalls; i++ {
		if err := gar.AggregateInto(rule, dst, grads); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms)
	out.layer("gar.allocs_per_call", float64(ms.Mallocs-before)/garCalls)

	// vecmath: the pairwise kernel of the Krum family and the sorted-column
	// kernel of the coordinate-wise rules, through their public faces.
	dists := make([][]float64, sh.n)
	for i := range dists {
		dists[i] = make([]float64, sh.n)
	}
	var kerr error
	out.layer("vecmath.pairwise_us_per_call", micros(timeCalls(func() {
		if err := vecmath.PairwiseSqDistsInto(dists, grads); err != nil {
			kerr = err
		}
	})))
	trim := sh.f
	if 2*trim >= sh.n {
		trim = (sh.n - 1) / 2 // the most a column of n values can lose from each end
	}
	out.layer("vecmath.sortedcol_us_per_call", micros(timeCalls(func() {
		if err := vecmath.TrimmedCoordMeanInto(dst, grads, trim); err != nil {
			kerr = err
		}
	})))
	if kerr != nil {
		return kerr
	}

	// membership: an epoch boundary over a stable cohort of n.
	mcfg := membership.Config{MinWorkers: sh.n, MaxWorkers: sh.n, FRatio: float64(sh.f) / float64(sh.n), EpochRounds: 50}
	if m := s.Membership; m != nil {
		mcfg = membership.Config{MinWorkers: m.MinWorkers, MaxWorkers: m.MaxWorkers, FRatio: m.FRatio, EpochRounds: m.EpochRounds}
	}
	tracker, err := membership.NewTracker(mcfg)
	if err != nil {
		return err
	}
	for id := 0; id < sh.n; id++ {
		if err := tracker.Handshake(id); err != nil {
			return err
		}
	}
	out.layer("membership.advance_us_per_call", micros(timeCalls(func() {
		if _, _, _, err := tracker.AdvanceEpoch(); err != nil {
			kerr = err
		}
	})))
	if kerr != nil {
		return kerr
	}

	// spec: parse and validate a 600-run envelope of this Spec.
	const envelopeRuns = 600
	sub := spec.Submission{Runs: make([]spec.Spec, envelopeRuns)}
	for i := range sub.Runs {
		sub.Runs[i] = s
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	out.layer("spec.parse_us_per_spec", micros(timeCalls(func() {
		if _, err := spec.ParseSubmission(body); err != nil {
			kerr = err
		}
	}))/envelopeRuns)
	if kerr != nil {
		return kerr
	}

	// spec: everything LocalBackend.Run does around the rounds.
	one := s
	one.Steps = 1
	out.layer("spec.run_overhead_ms_local", millis(timeCalls(func() {
		if _, err := (&spec.LocalBackend{}).Run(ctx, one, runOpts...); err != nil {
			kerr = err
		}
	})))
	if kerr != nil {
		return kerr
	}

	// experiments: Submit to task start on an idle pool.
	pool := experiments.NewPool(fleetWidth)
	defer pool.Close()
	out.layer("experiments.pool_dispatch_us", micros(timeCalls(func() {
		started := make(chan time.Time, 1)
		t0 := time.Now()
		pool.Submit(0, func() { started <- time.Now() })
		_ = (<-started).Sub(t0)
	})))
	return nil
}

// replayCheckpoint times checkpoint.SaveRunState on a real snapshot of the
// Spec — taken from a one-step local run, so it carries every worker's
// streams and momentum — and returns the median save with the snapshot's
// size on disk.
func replayCheckpoint(ctx context.Context, s spec.Spec, tmpRoot string, runOpts ...spec.Option) (save time.Duration, bytes int64, err error) {
	one := s
	one.Steps = 1
	var snap *checkpoint.RunState
	opts := append([]spec.Option{spec.WithSnapshotFunc(func(st *checkpoint.RunState) error {
		snap = st
		return nil
	}, 1)}, runOpts...)
	if _, err := (&spec.LocalBackend{}).Run(ctx, one, opts...); err != nil {
		return 0, 0, err
	}
	if snap == nil {
		return 0, 0, fmt.Errorf("bench: one-step run of %s took no snapshot", s.Name)
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "checkpoint-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snapshot.json")
	var serr error
	save = timeCalls(func() {
		if err := checkpoint.SaveRunState(path, snap); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return 0, 0, serr
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return save, fi.Size(), nil
}

// replayFleetStore times the fleet's three per-run disk operations on a
// scratch run directory: an event-log append, an event-log flush, and an
// atomic meta write.
func replayFleetStore(out metricSet, tmpRoot string, steps int) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(tmpRoot, "fleet-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	store := fleet.NewStore(root)
	id := spec.FormatRunID(0)
	if err := store.Dir(id).Ensure(); err != nil {
		return err
	}
	log, err := fleet.OpenEventLog(store.Dir(id).EventsPath())
	if err != nil {
		return err
	}
	var ferr error
	step := 0
	// One call appends a run's worth of events, so the figure includes the
	// buffered writer's share of file writes.
	appendNS := timeCalls(func() {
		for i := 0; i < steps; i++ {
			if err := log.Append(fleet.Event{Step: step, Loss: 0.5}); err != nil {
				ferr = err
			}
			step++
		}
	})
	out.layer("fleet.eventlog_append_ns_per_event", float64(appendNS)/float64(steps))
	out.layer("fleet.eventlog_flush_us_per_call", micros(timeCalls(func() {
		// A flush with nothing buffered writes nothing: buffer the lines a
		// snapshot interval produces first.
		for i := 0; i < fleetCheckpointEvery; i++ {
			if err := log.Append(fleet.Event{Step: step, Loss: 0.5}); err != nil {
				ferr = err
			}
			step++
		}
		if err := log.Flush(); err != nil {
			ferr = err
		}
	})))
	if err := log.Close(); err != nil {
		return err
	}
	meta := fleet.Meta{
		Version: fleet.MetaVersion, ID: id, Backend: "local",
		CheckpointEvery: fleetCheckpointEvery, Status: fleet.StatusRunning,
	}
	out.layer("fleet.savemeta_us_per_call", micros(timeCalls(func() {
		if err := store.SaveMeta(&meta); err != nil {
			ferr = err
		}
	})))
	return ferr
}
