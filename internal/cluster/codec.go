package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary frame codec, version 1. See the package comment in protocol.go
// for the full layout. All integers are little-endian; float64 payloads are
// raw IEEE-754 bits, so encoding is a canonical bijection: decoding a valid
// frame and re-encoding the message reproduces the original bytes.

const (
	// frameMagic0/frameMagic1 open every frame ("DB" for dpbyz).
	frameMagic0 = 'D'
	frameMagic1 = 'B'
	// frameVersion is the current protocol version. A peer speaking any
	// other version is rejected at the first frame.
	frameVersion = 1
	// frameHeaderSize is the fixed header: magic(2) version(1) type(1)
	// payload-length(4).
	frameHeaderSize = 8

	// DefaultMaxFrameBytes caps the declared payload length a peer may
	// announce (64 MiB, i.e. models up to ~8.3M float64 coordinates). The
	// cap is enforced before any payload memory is touched, so a hostile
	// peer cannot force unbounded allocation by declaring a huge frame.
	DefaultMaxFrameBytes = 1 << 26
)

// msgType tags the payload kind in byte 3 of the header.
type msgType uint8

const (
	msgInvalid msgType = iota
	msgHello
	msgParams
	msgGradient
	msgJoin
	msgWelcome
	msgTypeEnd // first invalid value
)

// joinFreshRound is the wire sentinel (uint32 all-ones) a fresh joiner
// sends as its last-seen round; it decodes to Join.LastRound == -1.
const joinFreshRound = math.MaxUint32

// Codec errors. ErrFrameTooLarge is the allocation guard; the others mean
// the stream is corrupt or the peer speaks a different protocol.
var (
	ErrBadMagic      = errors.New("cluster: bad frame magic")
	ErrBadVersion    = errors.New("cluster: unsupported protocol version")
	ErrBadType       = errors.New("cluster: unknown message type")
	ErrFrameTooLarge = errors.New("cluster: declared frame length exceeds cap")
	ErrBadPayload    = errors.New("cluster: malformed frame payload")
)

// paramsFlags bit assignments (byte 4 of a params payload).
const (
	paramsFlagDone  = 1 << 0
	paramsFlagsMask = paramsFlagDone
)

// message is the decode target for one frame. The Weights and Grad slices
// are owned by the message and reused across decodes: a decoded payload is
// only valid until the next decode into the same message. Callers that
// retain vectors beyond that must copy them out.
//
//dpbyz:scratch
type message struct {
	kind     msgType
	hello    Hello
	params   Params
	gradient Gradient
	join     Join
	welcome  Welcome
}

// releaseScratch returns the message's payload buffers to the shared
// scratch pool. Only call once no decoded payload is referenced anymore.
func (m *message) releaseScratch() {
	putScratch(m.params.Weights)
	putScratch(m.gradient.Grad)
	putScratch(m.welcome.Weights)
	putScratch(m.welcome.Velocity)
	m.params.Weights = nil
	m.gradient.Grad = nil
	m.welcome.Weights = nil
	m.welcome.Velocity = nil
}

// appendHeader writes the fixed frame header for a payload of n bytes.
//
//dpbyz:hotpath
func appendHeader(dst []byte, kind msgType, n int) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameVersion, byte(kind))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendHelloFrame encodes a complete hello frame.
//
//dpbyz:hotpath
func appendHelloFrame(dst []byte, h Hello) []byte {
	dst = appendHeader(dst, msgHello, 4)
	return binary.LittleEndian.AppendUint32(dst, uint32(h.WorkerID))
}

// appendParamsFrame encodes a complete params frame.
//
//dpbyz:hotpath
func appendParamsFrame(dst []byte, p Params) []byte {
	dst = appendHeader(dst, msgParams, 9+8*len(p.Weights))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Step))
	var flags byte
	if p.Done {
		flags |= paramsFlagDone
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Weights)))
	return appendFloat64s(dst, p.Weights)
}

// appendGradientFrame encodes a complete gradient frame.
//
//dpbyz:hotpath
func appendGradientFrame(dst []byte, g Gradient) []byte {
	dst = appendHeader(dst, msgGradient, 12+8*len(g.Grad))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(g.WorkerID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(g.Step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Grad)))
	return appendFloat64s(dst, g.Grad)
}

// appendJoinFrame encodes a complete join frame.
//
//dpbyz:hotpath
func appendJoinFrame(dst []byte, j Join) []byte {
	dst = appendHeader(dst, msgJoin, 8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(j.WorkerID))
	last := uint32(joinFreshRound)
	if j.LastRound >= 0 {
		last = uint32(j.LastRound)
	}
	return binary.LittleEndian.AppendUint32(dst, last)
}

// appendWelcomeFrame encodes a complete welcome frame.
//
//dpbyz:hotpath
func appendWelcomeFrame(dst []byte, w Welcome) []byte {
	dst = appendHeader(dst, msgWelcome, 12+8*len(w.Weights)+8*len(w.Velocity))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Epoch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Weights)))
	dst = appendFloat64s(dst, w.Weights)
	return appendFloat64s(dst, w.Velocity)
}

// appendFloat64s packs v as raw little-endian bits onto dst, four values
// per step. The frame writers size dst first, so it grows only for callers
// that did not.
//
//dpbyz:hotpath
func appendFloat64s(dst []byte, v []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(v))[:n+8*len(v)]
	b := dst[n:]
	for len(v) >= 4 && len(b) >= 32 {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(b[24:32], math.Float64bits(v[3]))
		v, b = v[4:], b[32:]
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return dst
}

// parseHeader validates a frame header and returns the message type and
// declared payload length. maxFrame bounds the length a peer may declare;
// the check runs before any payload is read or allocated.
//
//dpbyz:hotpath
func parseHeader(hdr []byte, maxFrame int) (msgType, int, error) {
	if len(hdr) < frameHeaderSize {
		return msgInvalid, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadPayload, len(hdr))
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return msgInvalid, 0, ErrBadMagic
	}
	if hdr[2] != frameVersion {
		return msgInvalid, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[2], frameVersion)
	}
	kind := msgType(hdr[3])
	if kind == msgInvalid || kind >= msgTypeEnd {
		return msgInvalid, 0, fmt.Errorf("%w: %d", ErrBadType, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > int64(maxFrame) {
		return msgInvalid, 0, fmt.Errorf("%w: declared %d, cap %d", ErrFrameTooLarge, n, maxFrame)
	}
	return kind, int(n), nil
}

// decodePayload parses one payload into m, reusing m's vector buffers. The
// declared vector dimension must account for the payload length exactly.
//
//dpbyz:hotpath
func decodePayload(kind msgType, payload []byte, m *message) error {
	m.kind = msgInvalid
	switch kind {
	case msgHello:
		if len(payload) != 4 {
			return fmt.Errorf("%w: hello payload %d bytes, want 4", ErrBadPayload, len(payload))
		}
		id := binary.LittleEndian.Uint32(payload)
		if id > math.MaxInt32 {
			return fmt.Errorf("%w: hello worker id %d out of range", ErrBadPayload, id)
		}
		m.hello = Hello{WorkerID: int(id)}
	case msgParams:
		if len(payload) < 9 {
			return fmt.Errorf("%w: params payload %d bytes, want >= 9", ErrBadPayload, len(payload))
		}
		step := binary.LittleEndian.Uint32(payload[0:4])
		flags := payload[4]
		if flags&^byte(paramsFlagsMask) != 0 {
			return fmt.Errorf("%w: unknown params flags %#x", ErrBadPayload, flags)
		}
		dim := binary.LittleEndian.Uint32(payload[5:9])
		if int64(dim)*8 != int64(len(payload)-9) {
			return fmt.Errorf("%w: params dim %d vs %d payload bytes", ErrBadPayload, dim, len(payload))
		}
		m.params.Step = int(step)
		m.params.Done = flags&paramsFlagDone != 0
		m.params.Weights = decodeFloat64s(m.params.Weights, payload[9:], int(dim))
	case msgGradient:
		if len(payload) < 12 {
			return fmt.Errorf("%w: gradient payload %d bytes, want >= 12", ErrBadPayload, len(payload))
		}
		id := binary.LittleEndian.Uint32(payload[0:4])
		if id > math.MaxInt32 {
			return fmt.Errorf("%w: gradient worker id %d out of range", ErrBadPayload, id)
		}
		step := binary.LittleEndian.Uint32(payload[4:8])
		dim := binary.LittleEndian.Uint32(payload[8:12])
		if int64(dim)*8 != int64(len(payload)-12) {
			return fmt.Errorf("%w: gradient dim %d vs %d payload bytes", ErrBadPayload, dim, len(payload))
		}
		m.gradient.WorkerID = int(id)
		m.gradient.Step = int(step)
		m.gradient.Grad = decodeFloat64s(m.gradient.Grad, payload[12:], int(dim))
	case msgJoin:
		if len(payload) != 8 {
			return fmt.Errorf("%w: join payload %d bytes, want 8", ErrBadPayload, len(payload))
		}
		id := binary.LittleEndian.Uint32(payload[0:4])
		if id > math.MaxInt32 {
			return fmt.Errorf("%w: join worker id %d out of range", ErrBadPayload, id)
		}
		last := binary.LittleEndian.Uint32(payload[4:8])
		m.join.WorkerID = int(id)
		if last == joinFreshRound {
			m.join.LastRound = -1
		} else if last > math.MaxInt32 {
			return fmt.Errorf("%w: join last round %d out of range", ErrBadPayload, last)
		} else {
			m.join.LastRound = int(last)
		}
	case msgWelcome:
		if len(payload) < 12 {
			return fmt.Errorf("%w: welcome payload %d bytes, want >= 12", ErrBadPayload, len(payload))
		}
		round := binary.LittleEndian.Uint32(payload[0:4])
		epoch := binary.LittleEndian.Uint32(payload[4:8])
		dim := binary.LittleEndian.Uint32(payload[8:12])
		// A welcome carries the params and velocity vectors back to back,
		// both of the declared dimension.
		if int64(dim)*16 != int64(len(payload)-12) {
			return fmt.Errorf("%w: welcome dim %d vs %d payload bytes", ErrBadPayload, dim, len(payload))
		}
		m.welcome.Round = int(round)
		m.welcome.Epoch = int(epoch)
		m.welcome.Weights = decodeFloat64s(m.welcome.Weights, payload[12:], int(dim))
		m.welcome.Velocity = decodeFloat64s(m.welcome.Velocity, payload[12+8*int(dim):], int(dim))
	default:
		return fmt.Errorf("%w: %d", ErrBadType, kind)
	}
	m.kind = kind
	return nil
}

// decodeFloat64s fills dst (grown through the scratch pool when too small)
// with n raw little-endian float64s from src, four values per step.
//
//dpbyz:scratch
//dpbyz:hotpath
func decodeFloat64s(dst []float64, src []byte, n int) []float64 {
	if cap(dst) < n {
		putScratch(dst)
		dst = getScratch(n)
	}
	dst = dst[:n]
	d, src := dst, src[:8*n]
	for len(d) >= 4 && len(src) >= 32 {
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:16]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:24]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:32]))
		d, src = d[4:], src[32:]
	}
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}
