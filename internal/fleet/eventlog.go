package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strconv"
	"sync"
)

// Event is one line of a run's telemetry stream: the JSONL wire form of one
// completed training step. Seq is the event's position in the run's log —
// the cursor a disconnected stream client resumes from — and, because every
// step emits exactly one event, always equals Step. Unmeasured metrics (NaN)
// are omitted rather than emitted as invalid JSON, mirroring spec.JSONLSink.
type Event struct {
	Seq      int      `json:"seq"`
	Step     int      `json:"step"`
	Loss     float64  `json:"loss"`
	Accuracy *float64 `json:"accuracy,omitempty"`
	VNRatio  *float64 `json:"vnRatio,omitempty"`
}

// errLogClosed rejects appends to a finished (or abandoned) run's log.
var errLogClosed = errors.New("fleet: event log closed")

// EventLog is one run's append-only telemetry log: every line lives in
// memory for replay to any number of stream cursors, and is appended to the
// run directory's events.jsonl through a buffered writer so the hot path
// pays one file write per buffer, not per step.
//
// Durability contract: buffered lines reach the disk only on Flush. The
// service flushes the log immediately before each resumable snapshot lands,
// so on any crash the on-disk log is at least as long as the on-disk
// snapshot's Step — a restart truncates the log back to exactly Step lines
// and the resumed (bit-identical) run regenerates the rest, which keeps
// every cursor position meaning the same event across the crash.
type EventLog struct {
	mu      sync.Mutex
	path    string
	lines   [][]byte // complete JSON lines, without the trailing newline
	f       *os.File
	w       *bufio.Writer
	buf     []byte        // Append's encode scratch: one line plus its newline
	changed chan struct{} // non-nil once Next handed it out; closed and dropped on the next append or close
	closed  bool
}

// OpenEventLog opens (creating if needed) the log at path and loads every
// complete line. A final line without its newline — a crash landed mid-write
// — is discarded from both memory and the file: the resumed run rewrites it.
func OpenEventLog(path string) (*EventLog, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fleet: read event log %s: %w", path, err)
	}
	var lines [][]byte
	good := 0
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // truncated final line: drop it
		}
		line := make([]byte, nl)
		copy(line, data[good:good+nl])
		lines = append(lines, line)
		good += nl + 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open event log %s: %w", path, err)
	}
	if good != len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("fleet: drop partial line in %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("fleet: seek event log %s: %w", path, err)
	}
	return &EventLog{path: path, lines: lines, f: f, w: bufio.NewWriter(f)}, nil
}

// Append appends ev to the log and wakes every waiting stream. The log
// assigns Seq, and enforces the one-event-per-step alignment (Seq == Step)
// that cursor resumption is built on.
func (l *EventLog) Append(ev Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	ev.Seq = len(l.lines)
	if ev.Step != ev.Seq {
		return fmt.Errorf("fleet: event for step %d would land at log index %d", ev.Step, ev.Seq)
	}
	buf, err := appendEvent(l.buf[:0], ev)
	if err != nil {
		return fmt.Errorf("fleet: encode event: %w", err)
	}
	l.buf = append(buf, '\n')
	// The retained line is the append's one allocation.
	line := make([]byte, len(buf))
	copy(line, buf)
	l.lines = append(l.lines, line)
	if _, err := l.w.Write(l.buf); err != nil {
		return fmt.Errorf("fleet: append event log %s: %w", l.path, err)
	}
	l.broadcast()
	return nil
}

// appendEvent appends ev's JSON to b: byte for byte what json.Marshal(ev)
// returns, its refusal of a non-finite float included, without reflection
// or an intermediate buffer.
func appendEvent(b []byte, ev Event) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, `,"step":`...)
	b = strconv.AppendInt(b, int64(ev.Step), 10)
	fields := [...]struct {
		key string
		val *float64
	}{{`,"loss":`, &ev.Loss}, {`,"accuracy":`, ev.Accuracy}, {`,"vnRatio":`, ev.VNRatio}}
	for _, f := range fields {
		if f.val == nil {
			continue // omitempty
		}
		if math.IsNaN(*f.val) || math.IsInf(*f.val, 0) {
			return nil, fmt.Errorf("unsupported float value %v", *f.val)
		}
		b = appendJSONFloat(append(b, f.key...), *f.val)
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends a finite f the way encoding/json writes a float64:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21, and a
// negative exponent's leading zero dropped (e-09 becomes e-9).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// broadcast wakes every reader parked on the channel Next handed out. An
// append nobody follows finds none and makes none. Callers hold mu.
func (l *EventLog) broadcast() {
	if l.changed != nil {
		close(l.changed)
		l.changed = nil
	}
}

// Len returns the number of complete events in the log.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// Next returns every line from cursor onward, a channel that closes on the
// next append (or on close), and whether the log is closed — one atomic
// snapshot, so a reader that sees no new lines and parks on the channel
// cannot miss a wakeup. Returned lines are shared read-only; do not mutate.
func (l *EventLog) Next(cursor int) (lines [][]byte, changed <-chan struct{}, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor < len(l.lines) {
		lines = l.lines[cursor:]
	}
	if l.changed == nil {
		l.changed = make(chan struct{})
	}
	return lines, l.changed, l.closed
}

// Flush pushes every buffered line to the file. The service calls this
// before each snapshot write (see the durability contract above).
func (l *EventLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *EventLog) flushLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("fleet: flush event log %s: %w", l.path, err)
	}
	return nil
}

// Truncate discards every event from index n onward, in memory and on disk —
// the restart path aligning the log with a resumable snapshot's Step. The
// single truncate syscall leaves either the old or the new length, never a
// torn line.
func (l *EventLog) Truncate(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(l.lines) {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	var keep int64
	for _, line := range l.lines[:n] {
		keep += int64(len(line)) + 1
	}
	if err := l.f.Truncate(keep); err != nil {
		return fmt.Errorf("fleet: truncate event log %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(keep, io.SeekStart); err != nil {
		return fmt.Errorf("fleet: seek event log %s: %w", l.path, err)
	}
	l.lines = l.lines[:n]
	return nil
}

// Close flushes, closes the file and wakes every stream: a closed log with
// no lines past a reader's cursor means the run is over and the stream ends.
// The in-memory lines stay readable.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.broadcast()
	err := l.flushLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("fleet: close event log %s: %w", l.path, cerr)
		}
		l.f = nil
	}
	return err
}

// Abandon closes the log WITHOUT flushing, discarding every buffered line —
// the crash-simulation path (Service.Kill): a real crash loses exactly the
// lines the buffer held, and the durability contract above absorbs it.
func (l *EventLog) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.broadcast()
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}
