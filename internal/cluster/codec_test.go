package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
)

// connPair builds a fault-free in-process connection with a conn on each
// end, cleaned up with the test.
func connPair(t testing.TB, maxFrame int) (client, server *conn) {
	t.Helper()
	tr := NewChanTransport()
	ln, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	type accepted struct {
		c   Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acceptCh <- accepted{c, err}
	}()
	rawClient, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	client = newConnMax(rawClient, maxFrame)
	server = newConnMax(acc.c, maxFrame)
	t.Cleanup(func() {
		_ = client.close()
		_ = server.close()
		_ = ln.Close()
	})
	return client, server
}

func TestFrameRoundTrip(t *testing.T) {
	weights := []float64{0, 1.5, -2.25, math.Inf(1), math.NaN(), 1e-300}
	frames := [][]byte{
		appendHelloFrame(nil, Hello{WorkerID: 7}),
		appendParamsFrame(nil, Params{Step: 3, Weights: weights}),
		appendParamsFrame(nil, Params{Step: 9, Weights: nil, Done: true}),
		appendGradientFrame(nil, Gradient{WorkerID: 41, Step: 1 << 30, Grad: weights}),
	}
	for i, frame := range frames {
		kind, n, err := parseHeader(frame, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatalf("frame %d: parse header: %v", i, err)
		}
		if got := frameHeaderSize + n; got != len(frame) {
			t.Fatalf("frame %d: declared size %d, real %d", i, got, len(frame))
		}
		var m message
		if err := decodePayload(kind, frame[frameHeaderSize:], &m); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		out, err := appendMessageFrame(nil, &m)
		if err != nil {
			t.Fatalf("frame %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(out, frame) {
			t.Errorf("frame %d: round trip not bit-identical:\n in  %x\n out %x", i, frame, out)
		}
	}
}

func TestParseHeaderRejections(t *testing.T) {
	valid := appendHelloFrame(nil, Hello{WorkerID: 1})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	tests := []struct {
		name string
		hdr  []byte
		want error
	}{
		{"short", valid[:4], ErrBadPayload},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[2] = 99 }), ErrBadVersion},
		{"type zero", mutate(func(b []byte) { b[3] = 0 }), ErrBadType},
		{"type unknown", mutate(func(b []byte) { b[3] = 200 }), ErrBadType},
		{"over cap", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:8], uint32(DefaultMaxFrameBytes+1))
		}), ErrFrameTooLarge},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := parseHeader(tt.hdr, DefaultMaxFrameBytes); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodePayloadRejections(t *testing.T) {
	grad := appendGradientFrame(nil, Gradient{WorkerID: 1, Step: 2, Grad: []float64{1, 2}})
	params := appendParamsFrame(nil, Params{Step: 1, Weights: []float64{3}})
	tests := []struct {
		name    string
		kind    msgType
		payload []byte
	}{
		{"hello short", msgHello, []byte{1, 2}},
		{"hello long", msgHello, []byte{1, 2, 3, 4, 5}},
		{"params short", msgParams, params[frameHeaderSize : frameHeaderSize+5]},
		{"params dim mismatch", msgParams, params[frameHeaderSize : len(params)-8]},
		{"params unknown flags", msgParams, func() []byte {
			p := append([]byte(nil), params[frameHeaderSize:]...)
			p[4] |= 0x80
			return p
		}()},
		{"gradient short", msgGradient, grad[frameHeaderSize : frameHeaderSize+11]},
		{"gradient dim mismatch", msgGradient, grad[frameHeaderSize : len(grad)-1]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m message
			if err := decodePayload(tt.kind, tt.payload, &m); !errors.Is(err, ErrBadPayload) {
				t.Errorf("error = %v, want ErrBadPayload", err)
			}
			if m.kind != msgInvalid {
				t.Errorf("message kind = %d after failed decode, want invalid", m.kind)
			}
		})
	}
}

func TestConnExchange(t *testing.T) {
	client, server := connPair(t, 0)
	deadline := time.Now().Add(time.Second)

	if err := client.sendHello(Hello{WorkerID: 5}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err := server.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != msgHello || m.hello.WorkerID != 5 {
		t.Fatalf("got %+v", m)
	}

	w := []float64{1, 2, 3}
	if err := server.sendParams(Params{Step: 4, Weights: w}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err = client.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != msgParams || m.params.Step != 4 || m.params.Done ||
		len(m.params.Weights) != 3 || m.params.Weights[2] != 3 {
		t.Fatalf("got %+v", m.params)
	}

	if err := client.sendGradient(Gradient{WorkerID: 5, Step: 4, Grad: w}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err = server.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	if m.kind != msgGradient || m.gradient.Step != 4 || m.gradient.Grad[0] != 1 {
		t.Fatalf("got %+v", m.gradient)
	}
}

// TestSendRejectsOversizedVector checks the writer side of the frame cap:
// a vector too large for the negotiated cap must fail fast instead of
// wrapping the uint32 length field and desyncing the peer.
func TestSendRejectsOversizedVector(t *testing.T) {
	client, _ := connPair(t, 64)
	big := make([]float64, 32)
	if err := client.sendParams(Params{Weights: big}, time.Time{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("sendParams error = %v, want ErrFrameTooLarge", err)
	}
	if err := client.sendGradient(Gradient{Grad: big}, time.Time{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("sendGradient error = %v, want ErrFrameTooLarge", err)
	}
}

// TestConnDecodeBufferIsReused documents the receive contract: a decoded
// vector is only valid until the next receive on the same conn. Holding an
// alias across receives observes the overwrite — which is exactly why
// RunWorker must copy FinalParams out (see the regression test in
// chaos_test.go).
func TestConnDecodeBufferIsReused(t *testing.T) {
	client, server := connPair(t, 0)
	deadline := time.Now().Add(time.Second)

	if err := server.sendParams(Params{Step: 0, Weights: []float64{11, 11}}, deadline); err != nil {
		t.Fatal(err)
	}
	if err := server.sendParams(Params{Step: 1, Weights: []float64{22, 22}}, deadline); err != nil {
		t.Fatal(err)
	}
	m, err := client.receive(deadline)
	if err != nil {
		t.Fatal(err)
	}
	alias := m.params.Weights
	if alias[0] != 11 {
		t.Fatalf("first weights = %v", alias)
	}
	if _, err := client.receive(deadline); err != nil {
		t.Fatal(err)
	}
	if alias[0] != 22 {
		t.Fatalf("decode buffer was not reused: alias = %v (the protocol relies on reuse)", alias)
	}
}

// TestOversizedFrameRejectedWithoutAllocation is the allocation guard: a
// peer declaring a huge payload must be rejected before the payload buffer
// is even grown.
func TestOversizedFrameRejectedWithoutAllocation(t *testing.T) {
	client, server := connPair(t, 0)
	hdr := appendHeader(nil, msgGradient, 0)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(DefaultMaxFrameBytes+1))
	if _, err := client.raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	_, err := server.receive(time.Now().Add(time.Second))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("error = %v, want ErrFrameTooLarge", err)
	}
	if cap(server.rbuf) != 0 {
		t.Errorf("payload buffer grown to %d bytes for a rejected frame", cap(server.rbuf))
	}
}

// TestConnSteadyStateZeroAlloc pins the zero-allocation discipline of the
// framing layer over the fault-free in-process transport: once buffers are
// warm, a full params+gradient exchange allocates nothing — with the frame
// hand-off active in both directions, and on the byte path a transport
// without one takes. The shared broadcast frame is covered too.
func TestConnSteadyStateZeroAlloc(t *testing.T) {
	const dim = 2048
	w := make([]float64, dim)
	for i := range w {
		w[i] = float64(i)
	}
	bcast := appendParamsFrame(nil, Params{Step: 2, Weights: w})
	for _, tc := range []struct {
		name    string
		handoff bool
	}{{"handoff", true}, {"bytes", false}} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := connPair(t, 0)
			if !tc.handoff {
				client, server = hideHandoff(client), hideHandoff(server)
			}
			if got := client.hand != nil && server.hand != nil; got != tc.handoff {
				t.Fatalf("hand-off active = %v, want %v", got, tc.handoff)
			}
			exchange := func() {
				if err := server.sendParams(Params{Step: 1, Weights: w}, time.Time{}); err != nil {
					t.Fatal(err)
				}
				m, err := client.receive(time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				if err := client.sendGradient(Gradient{WorkerID: 0, Step: 1, Grad: m.params.Weights}, time.Time{}); err != nil {
					t.Fatal(err)
				}
				if _, err := server.receive(time.Time{}); err != nil {
					t.Fatal(err)
				}
				if err := server.sendFrame(bcast, time.Time{}); err != nil {
					t.Fatal(err)
				}
				if _, err := client.receive(time.Time{}); err != nil {
					t.Fatal(err)
				}
			}
			// Two exchanges warm every buffer: a handed-off frame is back in
			// its pipe's free list only once the peer has decoded it.
			exchange()
			exchange()
			if allocs := testing.AllocsPerRun(50, exchange); allocs > 0 {
				t.Errorf("steady-state exchange allocates %.1f times per round, want 0", allocs)
			}
		})
	}
}

// TestFloat64sRoundTripBitExact holds the four-per-step codec loops to the
// per-value encoding they replaced: the same bytes for every length around
// the step, special values included, and the same bits back.
func TestFloat64sRoundTripBitExact(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		math.Float64frombits(0x7ff8_0000_0000_0001), // quiet NaN, payload 1
		math.Float64frombits(0xfff4_0000_dead_beef), // signalling NaN, sign set
		1.5, -2.25, math.MaxFloat64,
	}
	ref := func(dst []byte, v []float64) []byte {
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return dst
	}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10_000}
	for _, n := range lengths {
		v := make([]float64, n)
		for i := range v {
			v[i] = specials[i%len(specials)]
			if i >= len(specials) {
				v[i] = math.Float64frombits(uint64(i) * 0x9e37_79b9_7f4a_7c15)
			}
		}
		for _, prefix := range [][]byte{nil, []byte("DB\x01\x03abc")} {
			want := ref(append([]byte(nil), prefix...), v)
			got := appendFloat64s(append([]byte(nil), prefix...), v)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d prefix=%q: appendFloat64s bytes differ from the per-value encoding", n, prefix)
			}
			back := decodeFloat64s(nil, got[len(prefix):], n)
			for i := range v {
				if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
					t.Fatalf("n=%d: value %d decodes to %#x, want %#x", n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
				}
			}
			putScratch(back)
		}
	}
}

// A transport failure reads exactly as the fmt.Errorf wrap it replaced, and
// errors.Is still finds the cause.
func TestConnErrorMatchesErrorf(t *testing.T) {
	err := error(&connError{"read frame header", io.ErrUnexpectedEOF})
	if want := fmt.Errorf("cluster: read frame header: %w", io.ErrUnexpectedEOF).Error(); err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(%v, io.ErrUnexpectedEOF) = false", err)
	}
}
