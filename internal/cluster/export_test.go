package cluster

import "fmt"

// Helpers that only this package's tests call.

func newConn(raw Conn) *conn { return newConnMax(raw, DefaultMaxFrameBytes) }

// appendMessageFrame re-encodes a decoded message; used by tests and fuzzing
// to check the codec round-trips bit-exactly.
func appendMessageFrame(dst []byte, m *message) ([]byte, error) {
	switch m.kind {
	case msgHello:
		return appendHelloFrame(dst, m.hello), nil
	case msgParams:
		return appendParamsFrame(dst, m.params), nil
	case msgGradient:
		return appendGradientFrame(dst, m.gradient), nil
	case msgJoin:
		return appendJoinFrame(dst, m.join), nil
	case msgWelcome:
		return appendWelcomeFrame(dst, m.welcome), nil
	default:
		return dst, fmt.Errorf("%w: %d", ErrBadType, m.kind)
	}
}

// drainScratchForTest empties the pool and returns the retained buffers,
// letting tests prove a result does not alias recycled scratch.
func drainScratchForTest() [][]float64 {
	scratchPool.Lock()
	defer scratchPool.Unlock()
	bufs := scratchPool.bufs
	scratchPool.bufs = nil
	return bufs
}
