package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dpbyz/internal/randx"
)

// ChanTransport is an in-process Transport: connections are pairs of
// message queues, so hundreds of workers can share one test process with
// no sockets, and every frame can be subjected to the adversarial-channel
// faults the paper's system model allows (§2.1: unreliable, non-FIFO
// links). Faults are configured per direction via WithFaults; the plain
// transport is reliable and allocation-free on the steady state. A
// fault-free direction moves frames without copying them: the protocol
// layer enqueues its own encode buffer and decodes a received frame where it
// lies (frameHandoff), so a gradient's bytes are written once, by its
// encode, and read once, by its decode. Only the server's shared broadcast
// frame is still copied per member, and faulty directions copy every frame,
// as Write and Read do.
//
// Because the protocol writes exactly one frame per Write call, the
// transport treats each Write as one message: faults drop, duplicate,
// reorder, delay, corrupt or truncate whole frames, never split them.
type ChanTransport struct {
	mu        sync.Mutex
	listeners map[string]*chanListener
	nextAddr  int
}

// NewChanTransport returns an empty in-process transport. Servers and the
// workers that should reach them must share the same instance.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{listeners: make(map[string]*chanListener)}
}

// FaultConfig describes the faults injected into one direction of a
// connection. Probabilities are per frame in [0, 1]; zero values mean the
// fault is disabled. All faults are driven by a deterministic stream
// derived from Seed.
type FaultConfig struct {
	// Seed drives the fault stream (0 is a valid seed).
	Seed uint64
	// DropProb silently discards a frame.
	DropProb float64
	// DupProb enqueues a frame twice.
	DupProb float64
	// ReorderProb holds a frame back and releases it after the next one,
	// producing non-FIFO delivery. A held frame is flushed by the next
	// write; if no further write happens it is lost (a tail drop).
	ReorderProb float64
	// CorruptProb flips one random bit of the frame.
	CorruptProb float64
	// TruncateProb cuts the frame short at a random length.
	TruncateProb float64
	// Delay (plus a uniform jitter in [0, DelayJitter)) postpones delivery
	// of every frame without blocking the sender.
	Delay       time.Duration
	DelayJitter time.Duration
	// SkipFirst exempts the first SkipFirst frames of the direction from
	// every fault — modelling a reliable connection handshake (the hello,
	// and the first broadcast on the reverse path) over a faulty data
	// plane. Without it a dropped hello would wedge the accept phase,
	// which is a connection-establishment failure, not the round-level
	// chaos these faults are meant to exercise.
	SkipFirst int
	// Partitions lists deterministic partition windows: every frame whose
	// 1-based index (counted after SkipFirst) falls inside a window is
	// dropped, then the link heals. In the steady state the protocol
	// writes exactly one frame per round per direction, so frame index
	// lines up with round number and churn schedules become scriptable:
	// applying the same window to both directions of a dial models a
	// network partition over rounds [From, To]. Unlike DropProb this is
	// not probabilistic — the window is exact, which is what lets churn
	// tests assert per-epoch books instead of expectations.
	Partitions []PartitionWindow
}

// PartitionWindow drops frames From..To inclusive (1-based, counted after
// SkipFirst) on one direction of a connection.
type PartitionWindow struct {
	From, To int
}

// contains reports whether 1-based frame index i falls in the window.
func (w PartitionWindow) contains(i int) bool { return i >= w.From && i <= w.To }

func (f FaultConfig) active() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.ReorderProb > 0 ||
		f.CorruptProb > 0 || f.TruncateProb > 0 || f.Delay > 0 || f.DelayJitter > 0 ||
		len(f.Partitions) > 0
}

// partitioned reports whether the idx-th post-SkipFirst frame (1-based)
// falls inside any partition window.
func (f FaultConfig) partitioned(idx int) bool {
	for _, w := range f.Partitions {
		if w.contains(idx) {
			return true
		}
	}
	return false
}

// WithFaults returns a view of the transport whose future Dials inject the
// given faults: up on the dialer-to-listener direction, down on the
// reverse. Listen is shared with the parent transport, so a fault-free
// server and faulty workers can coexist on one ChanTransport.
func (t *ChanTransport) WithFaults(up, down FaultConfig) Transport {
	return &faultyTransport{t: t, up: up, down: down}
}

type faultyTransport struct {
	t        *ChanTransport
	up, down FaultConfig
}

func (ft *faultyTransport) Listen(addr string) (Listener, error) { return ft.t.Listen(addr) }

func (ft *faultyTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	return ft.t.dial(ctx, addr, ft.up, ft.down)
}

// Listen binds a named in-process endpoint. An empty addr auto-generates a
// unique name.
func (t *ChanTransport) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		t.nextAddr++
		addr = fmt.Sprintf("chan:%d", t.nextAddr)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("cluster: chan address %q already bound", addr)
	}
	ln := &chanListener{
		t:       t,
		addr:    addr,
		accepts: make(chan *chanConn, 128),
		done:    make(chan struct{}),
	}
	t.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a bound endpoint with no injected faults.
func (t *ChanTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	return t.dial(ctx, addr, FaultConfig{}, FaultConfig{})
}

func (t *ChanTransport) dial(ctx context.Context, addr string, up, down FaultConfig) (Conn, error) {
	t.mu.Lock()
	ln := t.listeners[addr]
	t.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("cluster: dial chan %q: no listener", addr)
	}
	done := make(chan struct{})
	upPipe := newChanPipe(up, done)
	downPipe := newChanPipe(down, done)
	var once sync.Once
	client := &chanConn{out: upPipe, in: downPipe, done: done, closeOnce: &once}
	server := &chanConn{out: downPipe, in: upPipe, done: done, closeOnce: &once}
	select {
	case ln.accepts <- server:
		// The listener may have closed while this dial held it. If done is
		// still open here, Close has yet to run its drain and will find the
		// queued conn; otherwise the drain may already be over, so fail the
		// conn here rather than leave it queued with nobody to accept it.
		select {
		case <-ln.done:
			_ = client.Close()
		default:
			return client, nil
		}
	case <-ln.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: dial chan %q: %w", addr, ctx.Err())
	}
	return nil, fmt.Errorf("cluster: dial chan %q: %w", addr, net.ErrClosed)
}

type chanListener struct {
	t       *ChanTransport
	addr    string
	accepts chan *chanConn
	done    chan struct{}
	once    sync.Once
}

func (l *chanListener) Accept() (Conn, error) {
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("cluster: accept chan %q: %w", l.addr, net.ErrClosed)
	}
}

func (l *chanListener) Addr() string { return l.addr }

// Close stops the listener and fails every dial still queued for Accept:
// their conns are closed, so a dialler that was handed one sees its first
// receive fail instead of waiting for a handshake nobody will answer.
func (l *chanListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
		for {
			select {
			case c := <-l.accepts:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// chanPipe carries whole frames in one direction. Every buffer is in exactly
// one place at a time: with the writer that encodes into it, queued in msgs,
// with the reader that consumes it, or recycled in free. The writer endpoint
// applies faults and copies what Write is given; the reader endpoint either
// consumes a frame byte-wise through Read or, on a fault-free pipe, takes
// it whole (frameHandoff). Both return the buffer to free once done, which
// keeps the fault-free steady state allocation-free.
type chanPipe struct {
	msgs chan []byte
	free chan []byte
	done chan struct{}

	// Writer-side fault state, serialized by wmu (randx streams are not
	// concurrency-safe).
	wmu    sync.Mutex
	faults FaultConfig
	rng    *randx.Stream
	held   []byte
	sent   int
}

func newChanPipe(faults FaultConfig, done chan struct{}) *chanPipe {
	p := &chanPipe{
		msgs:   make(chan []byte, 64),
		free:   make(chan []byte, 64),
		done:   done,
		faults: faults,
	}
	if faults.active() {
		p.rng = randx.New(faults.Seed)
	}
	return p
}

// getBuf returns a buffer with length n, reusing a recycled one if its
// capacity suffices.
func (p *chanPipe) getBuf(n int) []byte {
	select {
	case b := <-p.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

func (p *chanPipe) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case p.free <- b[:cap(b)]:
	default:
	}
}

// write enqueues one frame, applying the pipe's faults. A dropped frame
// still reports success: loss is invisible to the sender on an unreliable
// channel. deadline bounds blocking on a full queue (zero means forever).
func (p *chanPipe) write(frame []byte, deadline time.Time) (int, error) {
	n := len(frame)
	select {
	case <-p.done:
		return 0, net.ErrClosed
	default:
	}
	if p.rng == nil {
		buf := p.getBuf(n)
		copy(buf, frame)
		if err := p.enqueue(buf, deadline); err != nil {
			return 0, err
		}
		return n, nil
	}

	p.wmu.Lock()
	f := p.faults
	p.sent++
	buf := p.getBuf(n)
	copy(buf, frame)
	if p.sent <= f.SkipFirst {
		p.wmu.Unlock()
		if err := p.enqueue(buf, deadline); err != nil {
			return 0, err
		}
		return n, nil
	}
	if f.partitioned(p.sent - f.SkipFirst) {
		p.putBuf(buf)
		p.wmu.Unlock()
		return n, nil
	}
	if f.TruncateProb > 0 && p.rng.Float64() < f.TruncateProb && n > 0 {
		buf = buf[:p.rng.Intn(n)]
	}
	if f.CorruptProb > 0 && p.rng.Float64() < f.CorruptProb && len(buf) > 0 {
		buf[p.rng.Intn(len(buf))] ^= 1 << p.rng.Intn(8)
	}
	if f.DropProb > 0 && p.rng.Float64() < f.DropProb {
		p.putBuf(buf)
		p.wmu.Unlock()
		return n, nil
	}
	queue := make([][]byte, 0, 3)
	if f.ReorderProb > 0 && p.held == nil && p.rng.Float64() < f.ReorderProb {
		p.held = buf
	} else {
		queue = append(queue, buf)
		if f.DupProb > 0 && p.rng.Float64() < f.DupProb {
			dup := p.getBuf(len(buf))
			copy(dup, buf)
			queue = append(queue, dup)
		}
		if p.held != nil {
			queue = append(queue, p.held)
			p.held = nil
		}
	}
	delay := f.Delay
	if f.DelayJitter > 0 {
		delay += time.Duration(p.rng.Float64() * float64(f.DelayJitter))
	}
	p.wmu.Unlock()

	for _, b := range queue {
		if delay > 0 {
			go func(b []byte) {
				select {
				case <-time.After(delay):
					_ = p.enqueue(b, time.Time{})
				case <-p.done:
				}
			}(b)
			continue
		}
		if err := p.enqueue(b, deadline); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func (p *chanPipe) enqueue(buf []byte, deadline time.Time) error {
	select {
	case p.msgs <- buf:
		return nil
	default:
	}
	if deadline.IsZero() {
		select {
		case p.msgs <- buf:
			return nil
		case <-p.done:
			return net.ErrClosed
		}
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return os.ErrDeadlineExceeded
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case p.msgs <- buf:
		return nil
	case <-p.done:
		return net.ErrClosed
	case <-timer.C:
		return os.ErrDeadlineExceeded
	}
}

// chanConn is one endpoint of an in-process connection.
type chanConn struct {
	out  *chanPipe
	in   *chanPipe
	done chan struct{}
	// closeOnce is shared with the peer endpoint: either side closing
	// tears the pair down, mirroring a broken socket.
	closeOnce *sync.Once

	// Read state and write state take separate mutexes: the reader blocks
	// holding rmu, and the writing goroutine must still be able to set its
	// deadline and write concurrently.
	rmu        sync.Mutex
	rdDeadline time.Time
	// cur/off track the partially consumed inbound frame.
	cur []byte
	off int

	wmu        sync.Mutex
	wrDeadline time.Time
}

func (c *chanConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	deadline := c.rdDeadline
	if c.cur == nil {
		var err error
		c.cur, err = c.nextFrameLocked(deadline)
		if err != nil {
			c.rmu.Unlock()
			return 0, err
		}
		c.off = 0
	}
	n := copy(p, c.cur[c.off:])
	c.off += n
	if c.off >= len(c.cur) {
		c.in.putBuf(c.cur)
		c.cur = nil
	}
	c.rmu.Unlock()
	return n, nil
}

// nextFrameLocked blocks for the next inbound frame, honoring the read
// deadline and draining queued frames even after the pair is closed (a
// graceful close still delivers what was already sent, like TCP).
// Zero-length frames (a truncation fault can produce them) are skipped:
// Read must not return 0 bytes with a nil error.
func (c *chanConn) nextFrameLocked(deadline time.Time) ([]byte, error) {
	for {
		select {
		case m := <-c.in.msgs:
			if len(m) == 0 {
				c.in.putBuf(m)
				continue
			}
			return m, nil
		default:
		}
		if deadline.IsZero() {
			select {
			case m := <-c.in.msgs:
				if len(m) == 0 {
					c.in.putBuf(m)
					continue
				}
				return m, nil
			case <-c.done:
				// Final drain: close raced with a concurrent enqueue.
				select {
				case m := <-c.in.msgs:
					if len(m) == 0 {
						c.in.putBuf(m)
						continue
					}
					return m, nil
				default:
					return nil, net.ErrClosed
				}
			}
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, os.ErrDeadlineExceeded
		}
		timer := time.NewTimer(wait)
		select {
		case m := <-c.in.msgs:
			timer.Stop()
			if len(m) == 0 {
				c.in.putBuf(m)
				continue
			}
			return m, nil
		case <-c.done:
			timer.Stop()
			select {
			case m := <-c.in.msgs:
				if len(m) == 0 {
					c.in.putBuf(m)
					continue
				}
				return m, nil
			default:
				return nil, net.ErrClosed
			}
		case <-timer.C:
			return nil, os.ErrDeadlineExceeded
		}
	}
}

// takeFrame implements frameHandoff: the frame leaves the pipe whole, and
// the caller returns it through releaseFrame.
//
//dpbyz:scratch
//dpbyz:hotpath
func (c *chanConn) takeFrame() ([]byte, bool, error) {
	if c.in.rng != nil {
		return nil, false, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.cur != nil {
		return nil, false, nil
	}
	m, err := c.nextFrameLocked(c.rdDeadline)
	if err != nil {
		return nil, false, err
	}
	if len(m) < frameHeaderSize || int(binary.LittleEndian.Uint32(m[4:frameHeaderSize])) != len(m)-frameHeaderSize {
		c.cur, c.off = m, 0
		return nil, false, nil
	}
	return m, true, nil
}

// releaseFrame implements frameHandoff.
//
//dpbyz:hotpath
func (c *chanConn) releaseFrame(frame []byte) { c.in.putBuf(frame) }

// giveFrame implements frameHandoff: on a fault-free pipe the frame is
// queued as it is, and the reader recycles it to the pipe's free list.
//
//dpbyz:hotpath
func (c *chanConn) giveFrame(frame []byte) (bool, error) {
	if c.out.rng != nil {
		return false, nil
	}
	c.wmu.Lock()
	deadline := c.wrDeadline
	c.wmu.Unlock()
	select {
	case <-c.done:
		return true, net.ErrClosed
	default:
	}
	return true, c.out.enqueue(frame, deadline)
}

// spareFrame implements frameHandoff.
//
//dpbyz:scratch
//dpbyz:hotpath
func (c *chanConn) spareFrame() []byte {
	select {
	case b := <-c.out.free:
		return b[:0]
	default:
		return nil
	}
}

func (c *chanConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	deadline := c.wrDeadline
	c.wmu.Unlock()
	return c.out.write(p, deadline)
}

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *chanConn) SetReadDeadline(t time.Time) error {
	c.rmu.Lock()
	c.rdDeadline = t
	c.rmu.Unlock()
	return nil
}

func (c *chanConn) SetWriteDeadline(t time.Time) error {
	c.wmu.Lock()
	c.wrDeadline = t
	c.wmu.Unlock()
	return nil
}
