package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dpbyz/internal/fleet"
	"dpbyz/internal/spec"
	"dpbyz/internal/vecmath"
)

// fleetSweep submits one envelope of small local-backend runs to a fleet
// service over HTTP and follows a sample of their event streams. Per-run
// fixed costs dominate — Spec parse and validation, materialization, the run
// directory, a meta write per status transition, the per-step event log, a
// snapshot every 25 steps, pool dispatch — and the observer path is on,
// which it is in no other workload.
type fleetSweep struct {
	seed    uint64
	tmpRoot string
	// last and lastStore hold the client-side timings of the most recent
	// sweep and the disk usage of the store it left behind; seen accumulates
	// both over the traced sweeps.
	last      fleetTimings
	lastStore storeUsage
	seen      fleetObserved
}

// Service shape under test.
const (
	fleetWidth           = 2
	fleetCheckpointEvery = 25
	// fleetFollowed is how many event streams a batch follows, spread evenly
	// over the runs (every 100th of 1200), plus the last run's.
	fleetFollowed = 12
)

func (w *fleetSweep) name() string { return "fleet_sweep_http" }

func (w *fleetSweep) threads() int { return runtime.GOMAXPROCS(0) }

func (w *fleetSweep) sizes() (full, warm, smoke size) {
	return size{1200, 100}, size{300, 100}, size{60, 100}
}

// fleetHarness is one fleet service on a loopback listener with the
// benchmark's two client connections: A submits and polls, B streams.
type fleetHarness struct {
	root   string
	svc    *fleet.Service
	srv    *http.Server
	served chan error
	base   string
	a, b   *http.Client
	ta, tb *http.Transport
}

// oneConnClient returns a client that never holds more than one connection,
// so "two HTTP connections" is a property of the load and not a hope.
func oneConnClient() (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: t}, t
}

// startFleet opens a service over a fresh store under tmpRoot and serves it.
func startFleet(tmpRoot string) (*fleetHarness, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, fmt.Errorf("bench: scratch root: %w", err)
	}
	root, err := os.MkdirTemp(tmpRoot, "fleet-store-")
	if err != nil {
		return nil, fmt.Errorf("bench: fleet store: %w", err)
	}
	svc, err := fleet.Open(fleet.Config{Root: root, Width: fleetWidth, CheckpointEvery: fleetCheckpointEvery})
	if err != nil {
		_ = os.RemoveAll(root) // best effort: the open error is the one to report
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Stop()
		_ = os.RemoveAll(root) // best effort: the listen error is the one to report
		return nil, fmt.Errorf("bench: fleet listener: %w", err)
	}
	h := &fleetHarness{
		root:   root,
		svc:    svc,
		srv:    &http.Server{Handler: fleet.NewServer(svc)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	h.a, h.ta = oneConnClient()
	h.b, h.tb = oneConnClient()
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the HTTP server and the service, waits for both, and removes
// the store.
func (h *fleetHarness) close() error {
	h.ta.CloseIdleConnections()
	h.tb.CloseIdleConnections()
	err := h.srv.Close()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.svc.Stop()
	if rerr := os.RemoveAll(h.root); err == nil {
		err = rerr
	}
	return err
}

// getJSON issues a GET on c and decodes the JSON body into v.
func (h *fleetHarness) getJSON(ctx context.Context, c *http.Client, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit POSTs the envelope on connection A and returns the minted run ids.
func (h *fleetHarness) submit(ctx context.Context, body []byte) ([]spec.RunID, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.a.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10)) // best effort: the status is the error
		return nil, fmt.Errorf("POST /runs: status %s: %s", resp.Status, msg)
	}
	var out struct {
		Runs []struct {
			ID spec.RunID `json:"id"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("POST /runs: decode response: %w", err)
	}
	ids := make([]spec.RunID, len(out.Runs))
	for i, r := range out.Runs {
		ids[i] = r.ID
	}
	return ids, nil
}

// streamStats is what following one event stream to EOF observed.
type streamStats struct {
	events int
	// inOrder reports that event k carried seq == step == k for every k.
	inOrder bool
	// begin is when the request was sent, first and last the arrival times
	// of the first and the last event, eof the time the stream ended.
	begin, first, last, eof time.Time
}

// follow reads GET /runs/{id}/events from cursor 0 to EOF on connection B.
func (h *fleetHarness) follow(ctx context.Context, id spec.RunID) (streamStats, error) {
	st := streamStats{inOrder: true, begin: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/runs/"+string(id)+"/events?cursor=0", nil)
	if err != nil {
		return st, err
	}
	resp, err := h.b.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET events of %s: status %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var ev struct {
			Seq  int `json:"seq"`
			Step int `json:"step"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, fmt.Errorf("events of %s: line %d: %w", id, st.events, err)
		}
		if ev.Seq != st.events || ev.Step != st.events {
			st.inOrder = false
		}
		if st.events == 0 {
			st.first = now
		}
		st.last = now
		st.events++
	}
	st.eof = time.Now()
	return st, sc.Err()
}

// runsDone polls GET /metrics on connection A until it reports want runs
// done. Completion is observed over HTTP only, as a client would.
func (h *fleetHarness) runsDone(ctx context.Context, want int) error {
	for {
		var m fleet.Metrics
		if err := h.getJSON(ctx, h.a, "/metrics", &m); err != nil {
			return err
		}
		if m.Done+m.Failed+m.Cancelled >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (w *fleetSweep) setupOnce(ctx context.Context) error {
	h, err := startFleet(w.tmpRoot)
	if err != nil {
		return err
	}
	_, runErr := w.sweep(ctx, h, size{1, 1})
	if err := h.close(); runErr == nil {
		runErr = err
	}
	return runErr
}

func (w *fleetSweep) prepare(context.Context) error { return nil }

// check has nothing to add: every batch already verifies the store and the
// streams it followed.
func (w *fleetSweep) check(context.Context, int) error { return nil }

// fleetTimings are the client-side observations of one sweep.
type fleetTimings struct {
	start, posted, done time.Time
	streams             []streamStats
}

// envelope encodes the sweep's submission.
func (w *fleetSweep) envelope(sz size) ([]byte, error) {
	sub := spec.Submission{Runs: make([]spec.Spec, sz.runs)}
	for i := range sub.Runs {
		sub.Runs[i] = fleetSpec(w.seed, i, sz.steps)
	}
	return json.Marshal(sub)
}

// followedRuns picks the runs whose streams a sweep follows: an even sample
// and the last run, whose EOF ends the batch.
func followedRuns(runs int) []int {
	stride := runs / fleetFollowed
	if stride < 1 {
		stride = 1
	}
	var idx []int
	for i := 0; i < runs; i += stride {
		idx = append(idx, i)
	}
	if idx[len(idx)-1] != runs-1 {
		idx = append(idx, runs-1)
	}
	return idx
}

// sweep submits sz.runs runs and returns once every one is done and every
// followed stream hit EOF. It is the closed loop of the workload: one
// goroutine, one call outstanding at a time.
func (w *fleetSweep) sweep(ctx context.Context, h *fleetHarness, sz size) ([]spec.RunID, error) {
	body, err := w.envelope(sz)
	if err != nil {
		return nil, err
	}
	t := fleetTimings{start: time.Now()}
	ids, err := h.submit(ctx, body)
	if err != nil {
		return nil, err
	}
	t.posted = time.Now()
	if len(ids) != sz.runs {
		return nil, fmt.Errorf("submitted %d runs, service minted %d ids", sz.runs, len(ids))
	}
	for _, i := range followedRuns(sz.runs) {
		st, err := h.follow(ctx, ids[i])
		if err != nil {
			return nil, err
		}
		t.streams = append(t.streams, st)
	}
	if err := h.runsDone(ctx, sz.runs); err != nil {
		return nil, err
	}
	t.done = time.Now()
	w.last = t
	return ids, nil
}

func (w *fleetSweep) batch(ctx context.Context, sz size, m *meter) (out batchOut, err error) {
	h, err := startFleet(w.tmpRoot)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()
	if err := m.start(); err != nil {
		return out, err
	}
	ids, err := w.sweep(ctx, h, sz)
	if err != nil {
		return out, err
	}
	if err := m.stop(); err != nil {
		return out, err
	}
	return w.verify(ctx, h, ids, sz)
}

// verify checks, outside the timed region, what the sweep left behind: every
// run done, every followed stream complete and in order, and the store
// holding spec, meta, snapshot and events for every run.
func (w *fleetSweep) verify(ctx context.Context, h *fleetHarness, ids []spec.RunID, sz size) (batchOut, error) {
	out := batchOut{rounds: sz.rounds(), attempted: sz.runs + len(w.last.streams)}
	var list struct {
		Runs []fleet.Meta `json:"runs"`
	}
	if err := h.getJSON(ctx, h.a, "/runs", &list); err != nil {
		return out, err
	}
	if len(list.Runs) != sz.runs {
		return out, fmt.Errorf("GET /runs lists %d runs, submitted %d", len(list.Runs), sz.runs)
	}
	for _, meta := range list.Runs {
		if meta.Status != fleet.StatusDone {
			out.failed++
		}
	}
	for _, st := range w.last.streams {
		if st.events != sz.steps || !st.inOrder {
			out.failed++
		}
	}
	hsh := newHash()
	store := fleet.NewStore(h.root)
	for _, id := range ids {
		dir := store.Dir(id)
		for _, p := range []string{dir.SpecPath(), dir.MetaPath(), dir.SnapshotPath(), dir.EventsPath()} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				return out, fmt.Errorf("store: %s missing or empty (%v)", filepath.Base(p), err)
			}
		}
		snap, err := dir.LoadSnapshot()
		if err != nil {
			return out, err
		}
		if snap == nil || snap.Step != sz.steps {
			return out, fmt.Errorf("store: run %s final snapshot is not at step %d", id, sz.steps)
		}
		if !vecmath.AllFinite(snap.Params) {
			out.failed++
		}
		hashParams(hsh, snap.Params)
	}
	out.hash = hsh.Sum64()
	var err error
	w.lastStore, err = walkStore(h.root)
	return out, err
}
