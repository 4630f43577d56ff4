package cluster

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Transport abstracts how servers and workers reach each other, so the
// same protocol stack runs over real TCP sockets in production and over
// in-process channels (optionally with injected faults) in tests and
// benchmarks. Implementations must be safe for concurrent use.
type Transport interface {
	// Listen binds a server endpoint. The interpretation of addr is
	// transport-specific (a host:port for TCP, a registry name in-process).
	Listen(addr string) (Listener, error)
	// Dial connects to a listening endpoint.
	Dial(ctx context.Context, addr string) (Conn, error)
}

// Listener accepts inbound connections for one server endpoint.
type Listener interface {
	// Accept blocks until a connection arrives or the listener is closed.
	Accept() (Conn, error)
	// Addr returns the bound address in the form Dial expects.
	Addr() string
	// Close unbinds the endpoint and unblocks pending Accepts.
	Close() error
}

// Conn is a bidirectional byte stream with deadline support — the subset
// of net.Conn the protocol needs. One protocol frame is written per Write
// call, which lets message-oriented transports inject per-frame faults.
// Write only reads p and is done with it when it returns, so the caller
// keeps ownership and may send the same bytes on many conns; Read copies
// into the caller's p.
type Conn interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// frameHandoff is the zero-copy path of a Conn that carries whole frames as
// byte slices; only the in-process transport's conn implements it. Where
// Read and Write copy, it moves ownership of a frame buffer instead: a taken
// frame is the caller's until releaseFrame, and a given frame is the
// transport's from the moment giveFrame succeeds. Both honour the deadlines
// set through the Conn, and both decline (ok false) where the frame has to
// take the copying byte path, so the stream a conn reads is the same either
// way.
type frameHandoff interface {
	// takeFrame returns the next inbound frame whole. It declines when the
	// direction injects faults, when a frame is partly consumed by Read, or
	// when the next frame is not exactly a header plus the payload length it
	// declares; that frame is then left for Read.
	takeFrame() (frame []byte, ok bool, err error)
	// releaseFrame hands a taken frame back to its direction for reuse.
	releaseFrame(frame []byte)
	// giveFrame enqueues frame itself instead of a copy. It declines when
	// the direction injects faults; the frame must then go through Write.
	giveFrame(frame []byte) (ok bool, err error)
	// spareFrame returns an empty recycled buffer of the outbound
	// direction to encode the next frame into, or nil when none is free.
	spareFrame() []byte
}

// TCPTransport is the production transport: real TCP sockets.
type TCPTransport struct{}

// DefaultTransport is used when a config leaves Transport nil.
var DefaultTransport Transport = TCPTransport{}

// Listen binds a TCP listen socket.
func (TCPTransport) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return tcpListener{ln}, nil
}

// Dial connects a TCP socket, honoring the context deadline.
func (TCPTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return c, nil
}

type tcpListener struct{ ln net.Listener }

func (l tcpListener) Accept() (Conn, error) { return l.ln.Accept() }
func (l tcpListener) Addr() string          { return l.ln.Addr().String() }
func (l tcpListener) Close() error          { return l.ln.Close() }
