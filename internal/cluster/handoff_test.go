package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/gar"
)

// bytesOnly hides a Conn's frame hand-off: only the Conn methods are
// promoted, so a conn built on it takes the copying byte path.
type bytesOnly struct{ Conn }

// hideHandoff rebuilds c on the byte path over the same transport conn.
func hideHandoff(c *conn) *conn { return newConnMax(bytesOnly{c.raw}, c.maxFrame) }

// sameBuffer reports whether a and b share a backing array start.
func sameBuffer(a, b []float64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// gradValue is what worker id submits for step at coordinate j in the
// ownership tests: distinct per (id, step, j), so an overwrite shows.
func gradValue(id, step, j int) float64 { return float64(id*1_000_000 + step*1_000 + j) }

// TestGradientBuffersHaveOneOwner pins the ownership rule of the wire path:
// a gradient handed to the round loop is never the conn's decode vector, so
// the next frame cannot overwrite it, and no buffer is held in two places.
//
// The conn half drives receive → claim by hand for 200 rounds, holding each
// submission across the next round's frames (as the round loop and a late
// credit do), and checks every buffer's owner after each round: the held
// submissions, the free list, the conn's decode vector and the scratch pool
// are pairwise disjoint. The server half runs the real reader and round loop
// for 200 rounds; each worker follows its gradient with a spoofed frame the
// reader decodes and turns away, and the rule waits for those decodes
// before checking that every GAR input still holds what its worker sent.
func TestGradientBuffersHaveOneOwner(t *testing.T) {
	const dim, rounds = 48, 200
	t.Run("conn", func(t *testing.T) {
		client, server := connPair(t, 0)
		w := newWorkerConn(0, server, false)
		grad := make([]float64, dim)
		var held [][]float64
		for step := 0; step < rounds; step++ {
			for j := range grad {
				grad[j] = gradValue(0, step, j)
			}
			if err := client.sendGradient(Gradient{Step: step, Grad: grad}, time.Time{}); err != nil {
				t.Fatal(err)
			}
			m, err := server.receive(time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			buf, ok := w.claim(&m.gradient)
			if !ok {
				t.Fatalf("round %d: no free buffer with %d held", step, len(held))
			}
			held = append(held, buf)
			// Depth 3: the round loop's buffer plus a late one; the oldest
			// goes back to the free list once a third is held.
			if len(held) == submissionDepth {
				w.free <- held[0]
				held = held[1:]
			}
			for h, buf := range held {
				for j := range buf {
					if want := gradValue(0, step-len(held)+1+h, j); buf[j] != want {
						t.Fatalf("round %d: held submission %d coordinate %d = %v, want %v", step, h, j, buf[j], want)
					}
				}
			}
			var free [][]float64
			for len(w.free) > 0 {
				free = append(free, <-w.free)
			}
			owned := append(append([][]float64{server.msg.gradient.Grad}, held...), free...)
			pooled := drainScratchForTest()
			for i, a := range owned {
				for _, b := range owned[i+1:] {
					if sameBuffer(a, b) {
						t.Fatalf("round %d: one buffer is held in two places", step)
					}
				}
				for _, b := range pooled {
					if sameBuffer(a, b) {
						t.Fatalf("round %d: the scratch pool holds a buffer a live conn still owns", step)
					}
				}
			}
			for _, b := range free {
				w.free <- b
			}
		}
	})

	t.Run("server", func(t *testing.T) {
		const n = 3
		tr := NewChanTransport()
		spoofed := make(chan struct{}, n*rounds)
		inner, err := gar.New("average", n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rule := &checkedGAR{GAR: inner, check: func(step int, inputs [][]float64) error {
			// Every worker's spoofed frame for this round has been decoded
			// by its reader — an event that needs no server progress.
			for i := 0; i < n; i++ {
				select {
				case <-spoofed:
				case <-time.After(10 * time.Second):
					return fmt.Errorf("round %d: spoofed frames not decoded", step)
				}
			}
			pooled := drainScratchForTest()
			for id, in := range inputs {
				for j, x := range in {
					if want := gradValue(id, step, j); x != want {
						return fmt.Errorf("round %d: worker %d coordinate %d = %v, want %v (overwritten by a later decode)", step, id, j, x, want)
					}
				}
				for _, other := range inputs[id+1:] {
					if sameBuffer(in, other) {
						return fmt.Errorf("round %d: two slots share one buffer", step)
					}
				}
				for _, b := range pooled {
					if sameBuffer(in, b) {
						return fmt.Errorf("round %d: the scratch pool holds worker %d's submission", step, id)
					}
				}
			}
			return nil
		}}
		srv, err := NewServer(ServerConfig{
			Addr: "owners", Transport: tr, GAR: rule, Dim: dim, Steps: rounds,
			LearningRate: 1e-3, RoundTimeout: 30 * time.Second,
			Logf: func(format string, args ...any) {
				if strings.HasPrefix(format, "discarding bad gradient") {
					spoofed <- struct{}{}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			c := helloOnly(t, tr, "owners", id)
			go func(id int) {
				defer c.close()
				grad := make([]float64, dim)
				for {
					m, err := c.receive(time.Time{})
					if err != nil || m.kind != msgParams || m.params.Done {
						return
					}
					step := m.params.Step
					for j := range grad {
						grad[j] = gradValue(id, step, j)
					}
					if err := c.sendGradient(Gradient{WorkerID: id, Step: step, Grad: grad}, time.Time{}); err != nil {
						return
					}
					for j := range grad {
						grad[j] = -1
					}
					if err := c.sendGradient(Gradient{WorkerID: id + n, Step: step, Grad: grad}, time.Time{}); err != nil {
						return
					}
				}
			}(id)
		}
		res, err := srv.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.MissedGradients != 0 || res.DiscardedSubmissions != n*rounds {
			t.Errorf("missed %d, discarded %d; want 0 and %d", res.MissedGradients, res.DiscardedSubmissions, n*rounds)
		}
	})
}

// checkedGAR runs check on every round's inputs before aggregating them.
type checkedGAR struct {
	gar.GAR
	check func(step int, inputs [][]float64) error
	step  int
}

func (g *checkedGAR) AggregateInto(dst []float64, inputs [][]float64) error {
	if err := g.check(g.step, inputs); err != nil {
		return err
	}
	g.step++
	return gar.AggregateInto(g.GAR, dst, inputs)
}

// TestDiscardedCountStopsAtFinalCommit: the run's discard count is the final
// snapshot's. A worker re-sends its last gradient malformed after the final
// commit; the reader turns the frame away before shutdown, and that must be
// logged, not counted.
func TestDiscardedCountStopsAtFinalCommit(t *testing.T) {
	const dim, steps = 4, 3
	tr := NewChanTransport()
	committed := make(chan struct{})
	turnedAway := make(chan struct{}, 1)
	snapDiscarded := -1
	srv, err := NewServer(ServerConfig{
		Addr: "final", Transport: tr, GAR: mustGAR(t, "average", 1, 0), Dim: dim, Steps: steps,
		LearningRate: 1e-3, RoundTimeout: 30 * time.Second, SnapshotEvery: steps,
		SnapshotFunc: func(st *checkpoint.RunState) error {
			snapDiscarded = st.Quorum.Discarded
			close(committed)
			// The reader decoding the stale frame needs no server progress.
			select {
			case <-turnedAway:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("stale frame not turned away")
			}
			return nil
		},
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "discarding bad gradient") {
				turnedAway <- struct{}{}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := helloOnly(t, tr, "final", 0)
	go func() {
		defer c.close()
		for {
			m, err := c.receive(time.Time{})
			if err != nil || m.kind != msgParams || m.params.Done {
				return
			}
			step := m.params.Step
			if err := c.sendGradient(Gradient{Step: step, Grad: make([]float64, dim)}, time.Time{}); err != nil {
				return
			}
			if step == steps-1 {
				<-committed
				_ = c.sendGradient(Gradient{Step: step, Grad: make([]float64, dim+1)}, time.Time{})
			}
		}
	}()
	res, err := srv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscardedSubmissions != snapDiscarded {
		t.Errorf("run discarded %d, final snapshot %d: a frame turned away after the final commit was counted",
			res.DiscardedSubmissions, snapDiscarded)
	}
}

// FuzzChanReceive holds the frame hand-off to the byte path it bypasses:
// the same frames — arbitrary, truncated, corrupted, split or back to back —
// written to a chanConn decode to the same message bits or fail with the
// same error, whether the conn takes them whole or reads them through a
// wrapper that hides the hand-off. Every caller drops a conn at its first
// error, so the comparison ends there.
//
// cuts splits data into written frames: a zero byte takes the next frame
// as its header declares it (clipped to what is left), any other byte that
// many bytes.
func FuzzChanReceive(f *testing.F) {
	const maxFrame = 1 << 12
	valid := [][]byte{
		appendHelloFrame(nil, Hello{WorkerID: 3}),
		appendParamsFrame(nil, Params{Step: 7, Weights: []float64{1.5, -2.25, 0, math.Inf(-1), 5}}),
		appendGradientFrame(nil, Gradient{WorkerID: 1, Step: 2, Grad: []float64{3.25, -8, math.NaN()}}),
		appendJoinFrame(nil, Join{WorkerID: 2, LastRound: -1}),
		appendWelcomeFrame(nil, Welcome{Round: 3, Epoch: 1, Weights: []float64{1.5}, Velocity: []float64{-0.5}}),
	}
	all := bytes.Join(valid, nil)
	f.Add(all, []byte{0, 0, 0, 0, 0})
	f.Add(all, []byte{3, 5, 0, 0, 200, 1, 0})
	f.Add(all[:len(all)-3], []byte{0, 0, 0, 0, 0})
	corrupt := append([]byte(nil), all...)
	corrupt[len(valid[0])+3] ^= 0x40
	f.Add(corrupt, []byte{0, 0, 0})
	f.Add(valid[2][:frameHeaderSize], []byte{0})
	f.Add([]byte("DB\x01\x02\xff\xff\x00\x00"), []byte{0, 0})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var frames [][]byte
		for rest := data; len(rest) > 0 && len(frames) < 48; {
			n := len(rest)
			if len(frames) < len(cuts) {
				if c := int(cuts[len(frames)]); c > 0 {
					n = c
				} else if len(rest) >= frameHeaderSize {
					n = frameHeaderSize + int(uint32(rest[4])|uint32(rest[5])<<8|uint32(rest[6])<<16|uint32(rest[7])<<24)
				}
			}
			n = min(n, len(rest))
			frames = append(frames, rest[:n])
			rest = rest[n:]
		}
		handoff := receiveAll(t, frames, maxFrame, false)
		byteWise := receiveAll(t, frames, maxFrame, true)
		if len(handoff) != len(byteWise) {
			t.Fatalf("hand-off yields %d results, byte path %d:\n%q\n%q", len(handoff), len(byteWise), handoff, byteWise)
		}
		for i := range handoff {
			if handoff[i] != byteWise[i] {
				t.Fatalf("result %d: hand-off %q, byte path %q", i, handoff[i], byteWise[i])
			}
		}
	})
}

// receiveAll writes frames to a fresh fault-free chanConn pair, closes the
// writer and receives until the first error. Each result is a message
// re-encoded (its exact bits) or the error text.
func receiveAll(t *testing.T, frames [][]byte, maxFrame int, hide bool) []string {
	t.Helper()
	a, b := rawPair(t, FaultConfig{}, FaultConfig{})
	for _, fr := range frames {
		if _, err := a.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Close()
	if hide {
		b = bytesOnly{b}
	}
	c := newConnMax(b, maxFrame)
	defer c.close()
	var out []string
	for {
		m, err := c.receive(time.Now().Add(time.Second))
		if err != nil {
			return append(out, "error: "+err.Error())
		}
		enc, err := appendMessageFrame(nil, m)
		if err != nil {
			t.Fatalf("re-encode of a received message: %v", err)
		}
		out = append(out, string(enc))
	}
}
