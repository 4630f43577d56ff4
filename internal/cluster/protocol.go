// Package cluster is the networked realization of the paper's parameter
// server model (Fig. 1): a server that drives synchronous training rounds
// and workers that connect to it, compute clipped, DP-noised gradients and
// submit them each round.
//
// The protocol follows §2.1: training is divided into synchronous steps;
// the server broadcasts the current parameter vector, waits for gradients
// (treating any gradient not received before the round deadline as the
// zero vector) and applies the GAR + momentum update. Channels carry
// integrity only — gradients travel in the clear, as the paper's threat
// model prescribes (Remark 1): privacy comes solely from the workers' own
// noise injection.
//
// # Wire format
//
// Messages travel as length-prefixed binary frames (codec version 1). Every
// frame opens with a fixed 8-byte header, all integers little-endian:
//
//	offset  size  field
//	0       2     magic "DB" (0x44 0x42)
//	2       1     protocol version (currently 1)
//	3       1     message type (1 = hello, 2 = params, 3 = gradient,
//	              4 = join, 5 = welcome)
//	4       4     payload length in bytes (uint32)
//
// followed by the payload:
//
//	hello:     workerID uint32
//	params:    step uint32 | flags uint8 (bit 0 = done) | dim uint32 | dim × float64
//	gradient:  workerID uint32 | step uint32 | dim uint32 | dim × float64
//	join:      workerID uint32 | lastRound uint32 (0xFFFFFFFF = fresh join)
//	welcome:   round uint32 | epoch uint32 | dim uint32 | dim × float64 params
//	           | dim × float64 velocity
//
// A connection opens with hello or with join, and that opening frame — not
// the server's configuration — fixes its handshake rules. Every server runs
// the same epoched round loop (a fixed cohort is a one-epoch run whose
// population never changes), so both kinds of worker can sit in one view:
//
//  1. Welcome is the reply to join and is never sent to a connection that
//     opened with hello. A join carries the worker's id and the last round
//     it consumed; the welcome arrives at the admission boundary with the
//     first round the worker will serve plus the current model state, so a
//     rejoiner fast-forwards its deterministic RNG streams to the cohort's
//     position instead of submitting stale garbage (see
//     internal/membership). A hello worker is admitted at the same boundary
//     and simply receives params next.
//  2. A hello for an id whose connection is live is rejected (first wins: a
//     hello worker never redials, so the newcomer is a stray and must not
//     displace a running worker); a join for it replaces the old connection
//     (newest wins: it is the worker's own redial after a broken link).
//     Ids outside the population range are rejected either way.
//
// float64 values are raw little-endian IEEE-754 bits, so a d-dimensional
// gradient costs exactly 8d+20 bytes and encodes/decodes with no
// reflection and no per-message allocation: frames are built in and parsed
// from caller-owned buffers that are reused across messages.
//
// A frame whose declared payload length exceeds the connection's cap
// (DefaultMaxFrameBytes unless configured) is rejected before any payload
// memory is read or allocated, so a hostile peer cannot force unbounded
// allocation. Unknown magic, versions, message types, flag bits, or
// payload/dimension mismatches fail the connection: the peer either speaks
// a different protocol revision or the channel corrupted the stream, and
// §2.1's loss semantics (missing gradient ⇒ zero vector) already cover a
// dropped connection.
//
// The transport underneath is pluggable (see Transport): real TCP sockets
// for deployments, or the in-process ChanTransport — optionally with
// injected drop/duplicate/reorder/delay/corrupt faults — for tests and
// benchmarks that run hundreds of workers in one process.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// Protocol messages. Every connection starts with a Hello or a Join from the
// worker, after which the server sends one Params message per round (after a
// Welcome, for a Join) and the worker answers with one Gradient message.
type (
	// Hello announces a worker to the server.
	Hello struct {
		// WorkerID must be unique in [0, n).
		WorkerID int
	}

	// Params carries the model state for one round.
	Params struct {
		// Step is the 0-based round number.
		Step int
		// Weights is the current parameter vector w_t.
		Weights []float64
		// Done tells the worker that training has finished; Weights then
		// holds the final model.
		Done bool
	}

	// Gradient is a worker's submission for one round.
	Gradient struct {
		// WorkerID identifies the sender.
		WorkerID int
		// Step echoes the round this gradient answers.
		Step int
		// Grad is the (possibly clipped and noised) gradient vector.
		Grad []float64
	}

	// Join opens a connection that can survive churn: it announces a new or
	// rejoining worker together with how far its deterministic streams
	// have advanced, and is answered by a Welcome at admission.
	Join struct {
		// WorkerID must be unique in [0, MaxWorkers).
		WorkerID int
		// LastRound is the last round the worker drew its batch/noise
		// streams for, or -1 for a fresh join that never consumed any.
		LastRound int
	}

	// Welcome admits a worker that opened with Join at an epoch boundary
	// (never one that opened with Hello). The round tag
	// plus the worker's own seed fully determine the RNG stream state a
	// cohort member would have at this point, so Round is the stream
	// state in compressed form: the rejoiner fast-forwards its streams by
	// Round − (LastRound+1) rounds and resumes bit-identically.
	Welcome struct {
		// Round is the first round the worker will participate in.
		Round int
		// Epoch is the epoch whose view now includes the worker.
		Epoch int
		// Weights is the current parameter vector w_Round.
		Weights []float64
		// Velocity is the server's momentum accumulator at Round; a
		// worker does not need it to resume, but streaming it makes the
		// welcome a complete checkpoint of the server-visible state.
		Velocity []float64
	}
)

// Wire errors.
var (
	ErrBadMessage = errors.New("cluster: unexpected message type")
	// ErrBadHello rejects a hello for an id that already has a live
	// connection.
	ErrBadHello = errors.New("cluster: invalid hello")
)

// conn frames protocol messages over a transport connection. Steady-state
// sends and receives allocate nothing, and every buffer has one owner:
//
//   - The decoded message storage is the conn's and is reused, so a
//     *message returned by receive is only valid until the next receive on
//     the same conn. A caller that keeps a vector copies it out, or swaps a
//     buffer of its own into the message in its place.
//   - The encode buffer wbuf is the conn's until its frame is sent. Over a
//     transport with a frameHandoff the buffer itself is enqueued and is the
//     transport's from then on; the next encode takes a recycled buffer.
//   - An inbound frame taken whole through the hand-off is decoded in place
//     and handed back before receive returns. Over a byte stream the frame
//     is read into the conn's own rbuf instead.
//
// A conn is not safe for concurrent use, except that abort may be called
// from any goroutine to unblock pending I/O.
type conn struct {
	raw Conn
	// hand is raw's zero-copy path, nil when raw has none.
	hand     frameHandoff
	maxFrame int
	hdr      [frameHeaderSize]byte
	wbuf     []byte
	rbuf     []byte
	msg      message
	released bool
}

func newConn(raw Conn) *conn { return newConnMax(raw, DefaultMaxFrameBytes) }

func newConnMax(raw Conn, maxFrame int) *conn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	// The header's length field is a uint32; a larger cap could never be
	// declared (or encoded) faithfully.
	if int64(maxFrame) > int64(math.MaxUint32) {
		maxFrame = math.MaxUint32
	}
	hand, _ := raw.(frameHandoff)
	return &conn{raw: raw, hand: hand, maxFrame: maxFrame}
}

// encodeBuf returns the conn's encode buffer, emptied. After a hand-off the
// last frame belongs to the transport, so the conn takes a recycled one.
func (c *conn) encodeBuf() []byte {
	if c.wbuf == nil && c.hand != nil {
		c.wbuf = c.hand.spareFrame()
	}
	return c.wbuf[:0]
}

func (c *conn) sendHello(h Hello, deadline time.Time) error {
	c.wbuf = appendHelloFrame(c.encodeBuf(), h)
	return c.writeFrame(deadline)
}

func (c *conn) sendParams(p Params, deadline time.Time) error {
	// The writer honors the cap too: an oversized vector would otherwise
	// wrap the uint32 length field and desync the peer's stream.
	if n := 9 + 8*len(p.Weights); n > c.maxFrame {
		return fmt.Errorf("%w: params payload %d bytes, cap %d", ErrFrameTooLarge, n, c.maxFrame)
	}
	// Grow to the exact frame size first: appending 8 bytes at a time would
	// reach it through ~30 reallocations per conn (measured on the n = 64
	// krum_wide_chan workload: 29 allocs/round and 20 MiB of peak RSS).
	c.wbuf = appendParamsFrame(slices.Grow(c.encodeBuf(), frameHeaderSize+9+8*len(p.Weights)), p)
	return c.writeFrame(deadline)
}

func (c *conn) sendJoin(j Join, deadline time.Time) error {
	c.wbuf = appendJoinFrame(c.encodeBuf(), j)
	return c.writeFrame(deadline)
}

func (c *conn) sendWelcome(w Welcome, deadline time.Time) error {
	n := 12 + 8*len(w.Weights) + 8*len(w.Velocity)
	if n > c.maxFrame {
		return fmt.Errorf("%w: welcome payload %d bytes, cap %d", ErrFrameTooLarge, n, c.maxFrame)
	}
	// Exact frame size first, as in sendParams.
	c.wbuf = appendWelcomeFrame(slices.Grow(c.encodeBuf(), frameHeaderSize+n), w)
	return c.writeFrame(deadline)
}

func (c *conn) sendGradient(g Gradient, deadline time.Time) error {
	n := 12 + 8*len(g.Grad)
	if n > c.maxFrame {
		return fmt.Errorf("%w: gradient payload %d bytes, cap %d", ErrFrameTooLarge, n, c.maxFrame)
	}
	// Exact frame size first, as in sendParams.
	c.wbuf = appendGradientFrame(slices.Grow(c.encodeBuf(), frameHeaderSize+n), g)
	return c.writeFrame(deadline)
}

// writeFrame flushes the frame staged in the conn's own buffer. Over a
// transport with a hand-off the buffer itself is enqueued, not a copy: the
// conn gives it up, and encodeBuf takes a recycled one for the next frame.
func (c *conn) writeFrame(deadline time.Time) error {
	if c.hand == nil {
		return c.sendFrame(c.wbuf, deadline)
	}
	if err := c.raw.SetWriteDeadline(deadline); err != nil {
		return &connError{"set write deadline", err}
	}
	given, err := c.hand.giveFrame(c.wbuf)
	if !given {
		_, err = c.raw.Write(c.wbuf)
	}
	if err != nil {
		return &connError{"write frame", err}
	}
	if given {
		c.wbuf = nil
	}
	return nil
}

// sendFrame writes one caller-encoded frame in a single Write call, which is
// what lets message-oriented transports apply per-frame faults. The frame
// stays the caller's: Write only reads it and is done with it when it
// returns, so one encoded frame may be sent on many conns (the server's
// broadcast). The caller answers for the frame cap.
func (c *conn) sendFrame(frame []byte, deadline time.Time) error {
	if err := c.raw.SetWriteDeadline(deadline); err != nil {
		return &connError{"set write deadline", err}
	}
	if _, err := c.raw.Write(frame); err != nil {
		return &connError{"write frame", err}
	}
	return nil
}

// connError is a transport failure on a conn, the operation prefixed as
// fmt.Errorf("cluster: %s: %w") would. The message is built only when read:
// every teardown fails a blocked receive or send, the server's readers
// discard that error, and formatting a *net.OpError allocates its addresses.
type connError struct {
	op  string
	err error
}

func (e *connError) Error() string { return "cluster: " + e.op + ": " + e.err.Error() }

func (e *connError) Unwrap() error { return e.err }

// receive reads and decodes the next frame. The returned message (and any
// vector inside it) is owned by the conn and valid only until the next
// receive; callers that keep a vector must copy it, or swap a buffer of
// their own into the message in its place. A frame the transport hands over
// whole is decoded where it lies and handed back; any other goes through
// the byte stream, and either way the decoded message is the same.
func (c *conn) receive(deadline time.Time) (*message, error) {
	if err := c.raw.SetReadDeadline(deadline); err != nil {
		return nil, &connError{"set read deadline", err}
	}
	if c.hand != nil {
		frame, taken, err := c.hand.takeFrame()
		if err != nil {
			return nil, &connError{"read frame header", err}
		}
		if taken {
			kind, _, err := parseHeader(frame, c.maxFrame)
			if err == nil {
				err = decodePayload(kind, frame[frameHeaderSize:], &c.msg)
			}
			c.hand.releaseFrame(frame)
			if err != nil {
				return nil, err
			}
			return &c.msg, nil
		}
	}
	if _, err := io.ReadFull(c.raw, c.hdr[:]); err != nil {
		return nil, &connError{"read frame header", err}
	}
	kind, n, err := parseHeader(c.hdr[:], c.maxFrame)
	if err != nil {
		return nil, err
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.raw, c.rbuf); err != nil {
		return nil, &connError{"read frame payload", err}
	}
	if err := decodePayload(kind, c.rbuf, &c.msg); err != nil {
		return nil, err
	}
	return &c.msg, nil
}

// abort closes the underlying connection to unblock pending I/O. It is
// safe to call from a goroutine concurrent with receive/send; it does NOT
// recycle decode buffers (a concurrent receive may still be writing them).
func (c *conn) abort() error { return c.raw.Close() }

// close tears the connection down and recycles its decode scratch. Only
// call once no goroutine is using the conn and no decoded vector is
// referenced anymore; close is idempotent but not concurrency-safe.
func (c *conn) close() error {
	if !c.released {
		c.released = true
		c.msg.releaseScratch()
	}
	return c.raw.Close()
}
