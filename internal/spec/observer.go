package spec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// StepEvent is one completed step as seen by an Observer.
type StepEvent struct {
	// Step is the 0-based step index.
	Step int
	// Loss is the step's training-loss metric (the aggregate-norm proxy on
	// the cluster backend).
	Loss float64
	// Accuracy is the test accuracy, NaN when not measured this step.
	Accuracy float64
	// VNRatio is the empirical VN ratio, NaN when not measured this step.
	VNRatio float64
	// Params is a read-only view of the current parameter vector, valid only
	// for the duration of the OnStep call; copy to retain.
	Params []float64
}

// Observer streams per-step metrics out of a running backend. Observers run
// on the training goroutine: a slow observer slows the run, and a non-nil
// error aborts it. When no observer is installed the backends keep their
// zero-allocation steady state — the hook is nil and never constructed.
type Observer interface {
	OnStep(ev StepEvent) error
}

// JSONLSink writes one JSON object per step to an io.Writer — a streaming
// metrics log that external tooling can tail while the run is live.
// Unmeasured metrics (NaN) are omitted rather than emitted as invalid JSON.
//
// The sink buffers: lines reach the underlying writer in batches, so the
// per-step cost is a memory copy, not a write syscall. Callers MUST Close
// (or Flush) the sink when the run ends — an unflushed buffer is exactly
// how a final JSONL line ends up truncated.
type JSONLSink struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing buffered JSON lines to w. Close it
// to flush the final lines.
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriter(w)
	return &JSONLSink{buf: buf, enc: json.NewEncoder(buf)}
}

// jsonlRecord is the wire form of one step. Pointer fields drop NaN metrics
// from the output instead of producing invalid JSON.
type jsonlRecord struct {
	Step     int      `json:"step"`
	Loss     float64  `json:"loss"`
	Accuracy *float64 `json:"accuracy,omitempty"`
	VNRatio  *float64 `json:"vnRatio,omitempty"`
}

// OnStep implements Observer.
func (s *JSONLSink) OnStep(ev StepEvent) error {
	rec := jsonlRecord{Step: ev.Step, Loss: ev.Loss}
	if !math.IsNaN(ev.Accuracy) {
		rec.Accuracy = &ev.Accuracy
	}
	if !math.IsNaN(ev.VNRatio) {
		rec.VNRatio = &ev.VNRatio
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(rec)
}

// Flush pushes every buffered line to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Flush()
}

// Close implements io.Closer: it flushes the buffer. The underlying writer
// is the caller's to close — a sink over os.Stdout must not close it.
func (s *JSONLSink) Close() error { return s.Flush() }

// ProgressSink prints a one-line progress report every k steps (and for
// step 0), for interactive CLI runs.
type ProgressSink struct {
	w     io.Writer
	every int
}

// NewProgressSink reports to w every `every` steps (every <= 0 means 100).
func NewProgressSink(w io.Writer, every int) *ProgressSink {
	if every <= 0 {
		every = 100
	}
	return &ProgressSink{w: w, every: every}
}

// OnStep implements Observer.
func (s *ProgressSink) OnStep(ev StepEvent) error {
	if ev.Step%s.every != 0 {
		return nil
	}
	if math.IsNaN(ev.Accuracy) {
		_, err := fmt.Fprintf(s.w, "step %d: loss=%.6g\n", ev.Step, ev.Loss)
		return err
	}
	_, err := fmt.Fprintf(s.w, "step %d: loss=%.6g acc=%.4f\n", ev.Step, ev.Loss, ev.Accuracy)
	return err
}
