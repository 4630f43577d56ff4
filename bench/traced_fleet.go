package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/fleet"
	"dpbyz/internal/metrics"
	"dpbyz/internal/simulate"
	"dpbyz/internal/spec"
)

// The fleet service builds its own backends, so nothing inside a sweep can
// be wrapped. Its traced mode has three sources instead: the client-side
// clock around each HTTP call of the sweep, a walk of the store the sweep
// left behind, and — for the layers under the service — the sweep's own Spec
// run on the simulator with the wrappers, the real event log as its step hook
// and the real snapshot writer as its snapshot function.

// fleetObserved accumulates what the traced sweeps observed from outside.
type fleetObserved struct {
	runs, failed         int
	submit               time.Duration
	streamEvents         int
	streamTime           time.Duration
	lagMS                []float64
	storeFiles, storeLen int64
	storeRuns            int
}

func (w *fleetSweep) tracedBatch(ctx context.Context, sz size, m *meter, tr *tracer) (batchOut, error) {
	batch := tr.beginBatch()
	out, err := w.batch(ctx, sz, m)
	if err != nil {
		return out, err
	}
	t := w.last
	tr.add(spanFleetSubmit, batch, 0, tr.since(t.start), tr.since(t.posted))
	for _, st := range t.streams {
		tr.add(spanFleetStream, batch, 0, tr.since(st.begin), tr.since(st.eof))
		w.seen.streamEvents += st.events
		w.seen.streamTime += st.eof.Sub(st.begin)
		w.seen.lagMS = append(w.seen.lagMS, millis(st.eof.Sub(st.last)))
	}
	tr.finish(batch, tr.since(t.done))
	w.seen.runs += sz.runs
	w.seen.failed += out.failed
	w.seen.submit += t.posted.Sub(t.start)
	w.seen.storeFiles += w.lastStore.files
	w.seen.storeLen += w.lastStore.bytes
	w.seen.storeRuns += sz.runs
	return out, nil
}

// storeUsage is the number and total size of the regular files under a
// store root.
type storeUsage struct{ files, bytes int64 }

func walkStore(root string) (storeUsage, error) {
	var u storeUsage
	err := filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		u.files++
		u.bytes += fi.Size()
		return nil
	})
	return u, err
}

func (w *fleetSweep) layerMetrics(ctx context.Context, tr *tracer, out metricSet) error {
	seen := w.seen
	if seen.runs == 0 {
		return fmt.Errorf("bench: no traced sweeps to report")
	}
	out.layer("fleet.submit_ms_per_run", millis(seen.submit)/float64(seen.runs))
	out.layer("fleet.store_files_per_run", float64(seen.storeFiles)/float64(seen.storeRuns))
	out.layer("fleet.store_bytes_per_run", float64(seen.storeLen)/float64(seen.storeRuns))
	out.layer("fleet.stream_events_per_s", float64(seen.streamEvents)/seen.streamTime.Seconds())
	out.layer("fleet.stream_lag_ms_p50", median(seen.lagMS))
	out.layer("fleet.runs_failed", float64(seen.failed))

	full, _, _ := w.sizes()
	if err := w.idleService(ctx, out, full.steps); err != nil {
		return err
	}
	if err := replayFleetStore(out, w.tmpRoot, full.steps); err != nil {
		return err
	}
	if err := w.wrappedRuns(ctx, tr, out, full.steps); err != nil {
		return err
	}
	s := fleetSpec(w.seed, 0, full.steps)
	if err := replayShared(ctx, out, s, shapeOf(&s, s.Data.Features+1), w.seed); err != nil {
		return err
	}
	// The save time is wrap-sourced here; only the size comes from the replay.
	_, bytes, err := replayCheckpoint(ctx, s, w.tmpRoot)
	if err != nil {
		return err
	}
	out.layer("checkpoint.bytes_per_snapshot", float64(bytes))
	return nil
}

// idleService times single calls against a service with nothing else to do:
// one run from submit to stream EOF, and one status request.
func (w *fleetSweep) idleService(ctx context.Context, out metricSet, steps int) (err error) {
	h, err := startFleet(w.tmpRoot)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()
	var id spec.RunID
	run := 0
	var cerr error
	out.layer("fleet.single_run_ms_p50", millis(timeCalls(func() {
		body, err := json.Marshal(fleetSpec(w.seed, run, steps))
		run++
		if err != nil {
			cerr = err
			return
		}
		ids, err := h.submit(ctx, body)
		if err != nil || len(ids) != 1 {
			cerr = fmt.Errorf("single submit: %d ids, %v", len(ids), err)
			return
		}
		id = ids[0]
		if st, err := h.follow(ctx, id); err != nil || st.events != steps {
			cerr = fmt.Errorf("single run stream: %d events, %v", st.events, err)
		}
	})))
	if cerr != nil {
		return cerr
	}
	out.layer("fleet.status_us_per_call", micros(timeCalls(func() {
		var st fleet.RunStatus
		if err := h.getJSON(ctx, h.a, "/runs/"+string(id), &st); err != nil {
			cerr = err
		}
	})))
	return cerr
}

// wrappedRunCount is how many of the sweep's Specs the traced mode also runs
// on the simulator with the wrappers.
const wrappedRunCount = 20

// wrappedRuns runs the first Specs of the sweep the way fleet.Service.execute
// does — observer on, event log flushed before every snapshot lands — but
// through hand-built configs that take the timing wrappers.
func (w *fleetSweep) wrappedRuns(ctx context.Context, tr *tracer, out metricSet, steps int) error {
	if err := os.MkdirAll(w.tmpRoot, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(w.tmpRoot, "fleet-wrapped-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	store := fleet.NewStore(root)
	mark := len(tr.spans)
	batch := tr.beginBatch()
	snapshots, epochs := 0, 0
	for i := 0; i < wrappedRunCount; i++ {
		s := fleetSpec(w.seed, i, steps)
		dir := store.Dir(spec.FormatRunID(uint64(i)))
		if err := dir.Ensure(); err != nil {
			return err
		}
		log, err := fleet.OpenEventLog(dir.EventsPath())
		if err != nil {
			return err
		}
		specJSON, err := s.JSON()
		if err != nil {
			return err
		}
		res, err := tracedLocalRun(ctx, s, tr, batch, func(cfg *simulate.Config, rt *runTrace) error {
			cfg.StepHook = func(rec metrics.StepRecord, _ []float64) error {
				t0 := time.Now()
				err := log.Append(fleet.Event{Step: rec.Step, Loss: rec.Loss})
				rt.inRound(spanEventAppend, t0, time.Now())
				rt.endRound()
				return err
			}
			cfg.SnapshotEvery = fleetCheckpointEvery
			cfg.SnapshotFunc = func(st *checkpoint.RunState) error {
				t0 := time.Now()
				st.Backend, st.Spec = "local", specJSON
				if err := log.Flush(); err != nil {
					return err
				}
				err := checkpoint.SaveRunState(dir.SnapshotPath(), st)
				// The snapshot follows the step hook, so it is a child of
				// the round the hook just opened and leaves its self time.
				rt.inRound(spanSnapshot, t0, time.Now())
				snapshots++
				return err
			}
			return nil
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		epochs += len(res.Epochs)
	}
	tr.finish(batch, tr.since(time.Now()))

	tt := tr.totalsFrom(mark)
	layerPerRound(out, tt, false)
	rounds := float64(tt.count[spanRound])
	out.layer("simulate.self_us_per_round", float64(tt.self[spanRound])/1e3/rounds)
	out.layer("checkpoint.save_us_per_call", float64(tt.dur[spanSnapshot])/1e3/float64(tt.count[spanSnapshot]))
	out.layer("checkpoint.snapshots_per_run", float64(snapshots)/wrappedRunCount)
	out.layer("membership.epochs_per_run", float64(epochs)/wrappedRunCount)
	return nil
}
