package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced mode measures layers from outside the program: the benchmark
// wraps the interface-typed seams the simulator and the cluster accept and
// records a span around every call through them. Nothing under internal/
// knows it is being traced.

// spanName identifies what a span timed. Spans hold the index, not the
// string, so the span buffer carries no pointers for the collector to scan.
type spanName uint8

const (
	spanBatch spanName = iota
	spanRun
	// spanRound0 is a run's first round, which also pays for the runner's or
	// server's construction; per-round figures use spanRound only.
	spanRound0
	spanRound
	spanModelGrad
	spanModelLoss
	spanDPPerturb
	spanAttackCraft
	spanGARAggregate
	spanServerWrite
	spanWorkerWrite
	spanCollectWait
	spanSnapshot
	spanEventAppend
	spanFleetSubmit
	spanFleetStream
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanBatch:        "batch",
	spanRun:          "run",
	spanRound0:       "round0",
	spanRound:        "round",
	spanModelGrad:    "model.grad",
	spanModelLoss:    "model.loss",
	spanDPPerturb:    "dp.perturb",
	spanAttackCraft:  "attack.craft",
	spanGARAggregate: "gar.aggregate",
	spanServerWrite:  "cluster.server_write",
	spanWorkerWrite:  "cluster.worker_write",
	spanCollectWait:  "cluster.collect_wait",
	spanSnapshot:     "checkpoint.save",
	spanEventAppend:  "fleet.eventlog_append",
	spanFleetSubmit:  "fleet.submit",
	spanFleetStream:  "fleet.stream",
}

// span is one timed interval. IDs are positions in the tracer's buffer plus
// one, so zero means "no parent".
type span struct {
	parent     int32
	run        int32
	name       spanName
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps every span in memory; nothing is written until the benchmark
// ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	runs  int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// reserve allocates a span whose end is not known yet and returns its id.
func (t *tracer) reserve(name spanName, parent, run int32, start int64) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, run: run, name: name, start: start})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// finish closes a reserved span.
func (t *tracer) finish(id int32, end int64) {
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// add records a completed span.
func (t *tracer) add(name spanName, parent, run int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, run: run, name: name, start: start, end: end})
	t.mu.Unlock()
}

// beginBatch opens the span every run of a traced batch hangs from.
func (t *tracer) beginBatch() int32 {
	return t.reserve(spanBatch, 0, 0, t.since(time.Now()))
}

// runTrace is the trace context of one training run. The round in progress
// is the parent of every call the round loop makes; calls made on worker
// goroutines of a cluster run hang from the run span instead, because they
// overlap the server's round loop rather than nest in it.
type runTrace struct {
	t       *tracer
	run     int32
	runSpan int32
	// round is the span id of the round in progress.
	round atomic.Int32
	// lastServerWrite is when the round loop's latest broadcast write ended.
	lastServerWrite atomic.Int64

	// counts made at the transport boundary.
	bytesUp, bytesDown, frames atomic.Int64
}

// beginRun opens a run span under a batch and its first round.
func (t *tracer) beginRun(batch int32) *runTrace {
	now := t.since(time.Now())
	t.mu.Lock()
	t.runs++
	run := t.runs
	t.mu.Unlock()
	rt := &runTrace{t: t, run: run}
	rt.runSpan = t.reserve(spanRun, batch, run, now)
	rt.round.Store(t.reserve(spanRound0, rt.runSpan, run, now))
	return rt
}

// endRound is the body of the run's step hook: the stamp closes the round in
// progress and opens the next.
func (rt *runTrace) endRound() {
	now := rt.t.since(time.Now())
	rt.t.finish(rt.round.Load(), now)
	rt.round.Store(rt.t.reserve(spanRound, rt.runSpan, rt.run, now))
}

// end closes the run. The round opened by the last hook never ran: it is
// given zero length, which the aggregation skips.
func (rt *runTrace) end() {
	now := rt.t.since(time.Now())
	id := rt.round.Load()
	rt.t.mu.Lock()
	rt.t.spans[id-1].end = rt.t.spans[id-1].start
	rt.t.mu.Unlock()
	rt.t.finish(rt.runSpan, now)
}

// inRound records a call the round loop made.
func (rt *runTrace) inRound(name spanName, start, end time.Time) {
	rt.t.add(name, rt.round.Load(), rt.run, rt.t.since(start), rt.t.since(end))
}

// inRun records a call made beside the round loop, on a worker goroutine.
func (rt *runTrace) inRun(name spanName, start, end time.Time) {
	rt.t.add(name, rt.runSpan, rt.run, rt.t.since(start), rt.t.since(end))
}

// totals is the aggregate of a tracer's spans: per name the count, the
// summed duration and the summed self time (duration minus children).
type totals struct {
	count [numSpanNames]int64
	dur   [numSpanNames]int64
	self  [numSpanNames]int64
	// childOfRound sums, per name, only the spans whose parent is a
	// steady-state round (not a run's first).
	childOfRound [numSpanNames]int64
	// roundNS holds the duration of every steady-state round.
	roundNS []float64
}

func (t *tracer) totals() *totals { return t.totalsFrom(0) }

// totalsFrom aggregates the spans recorded since the buffer held `from`
// spans; their parents must lie in the same range.
func (t *tracer) totalsFrom(from int) *totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := &totals{}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans[from:] {
		self[from+i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	for i, s := range t.spans[from:] {
		i += from
		d := s.end - s.start
		if (s.name == spanRound || s.name == spanRound0) && d == 0 {
			continue // the round a run's last hook opened
		}
		tt.count[s.name]++
		tt.dur[s.name] += d
		tt.self[s.name] += self[i]
		if s.name == spanRound {
			tt.roundNS = append(tt.roundNS, float64(d))
		}
		if s.parent > 0 {
			if p := t.spans[s.parent-1]; p.name == spanRound && p.end > p.start {
				tt.childOfRound[s.name] += d
			}
		}
	}
	return tt
}

// writeFile writes the spans as JSON: a name table and one array
// [id, parent, run, name, start_ns, end_ns] per span. README.md says how to
// read it.
func (t *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: span file: %w", err)
	}
	w := bufio.NewWriter(f)
	names, err := json.Marshal(spanNames[:])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns since start of tracing\",\n", workload)
	fmt.Fprintf(w, "\"columns\":[\"id\",\"parent\",\"run\",\"name\",\"start\",\"end\"],\n\"names\":%s,\n\"spans\":[\n", names)
	t.mu.Lock()
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]%s\n", i+1, s.parent, s.run, s.name, s.start, s.end, sep)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("bench: span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: span file: %w", err)
	}
	return nil
}
