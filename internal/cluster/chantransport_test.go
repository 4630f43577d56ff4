package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawPair connects two endpoints over a fresh ChanTransport with the given
// per-direction faults (up = a-to-b).
func rawPair(t testing.TB, up, down FaultConfig) (a, b Conn) {
	t.Helper()
	tr := NewChanTransport()
	ln, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acceptCh <- accepted{c, err}
	}()
	a, err = tr.WithFaults(up, down).Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a, acc.c
}

// readFrameBytes reads exactly one queued frame (Read never spans frames).
func readFrameBytes(t *testing.T, c Conn, deadline time.Time) ([]byte, error) {
	t.Helper()
	if err := c.SetReadDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, err := c.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func TestChanTransportBidirectional(t *testing.T) {
	a, b := rawPair(t, FaultConfig{}, FaultConfig{})
	deadline := time.Now().Add(time.Second)
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := readFrameBytes(t, b, deadline)
	if err != nil || string(got) != "ping" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got, err = readFrameBytes(t, a, deadline)
	if err != nil || string(got) != "pong" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestChanTransportPartialReads(t *testing.T) {
	a, b := rawPair(t, FaultConfig{}, FaultConfig{})
	msg := []byte("hello frame")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := b.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestChanTransportDialUnknownAddr(t *testing.T) {
	tr := NewChanTransport()
	if _, err := tr.Dial(context.Background(), "chan:none"); err == nil {
		t.Error("dial to unbound address did not error")
	}
}

func TestChanTransportListenerClose(t *testing.T) {
	tr := NewChanTransport()
	ln, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("accept after close: %v", err)
	}
	if _, err := tr.Dial(context.Background(), "srv"); err == nil {
		t.Error("dial after listener close did not error")
	}
	// The name is released: rebinding must work.
	if _, err := tr.Listen("srv"); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

// A Dial racing Listener.Close must never be left queued with nobody to
// accept it: every dial either fails, or hands back a conn whose first
// receive fails at once because Close tore the queued pair down. Nothing
// calls Accept here, so a conn that survives Close would block its dialler
// until the read deadline.
func TestChanTransportDialRacingCloseFailsQueuedConns(t *testing.T) {
	const rounds, dials = 20, 32
	for r := 0; r < rounds; r++ {
		tr := NewChanTransport()
		ln, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		// One dial is queued for certain before Close; the rest race it.
		queued, err := tr.Dial(context.Background(), ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns := make(chan Conn, dials)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < dials; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := tr.Dial(context.Background(), ln.Addr())
				if err == nil {
					conns <- c
				} else if !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "no listener") {
					t.Errorf("dial racing close: %v", err)
				}
			}()
		}
		close(start)
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(conns)
		check := func(c Conn) {
			t.Helper()
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("round %d: receive on a conn queued across Close: %v, want net.ErrClosed", r, err)
			}
		}
		check(queued)
		for c := range conns {
			check(c)
		}
	}
}

func TestChanTransportReadDeadline(t *testing.T) {
	a, _ := rawPair(t, FaultConfig{}, FaultConfig{})
	start := time.Now()
	_, err := readFrameBytes(t, a, start.Add(50*time.Millisecond))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline read blocked %v", elapsed)
	}
}

// TestChanTransportCloseDeliversQueued mirrors TCP: frames sent before the
// close are still readable, then reads fail.
func TestChanTransportCloseDeliversQueued(t *testing.T) {
	a, b := rawPair(t, FaultConfig{}, FaultConfig{})
	if _, err := a.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readFrameBytes(t, b, time.Time{})
	if err != nil || string(got) != "last words" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := readFrameBytes(t, b, time.Time{}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after drain: %v, want closed", err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want closed", err)
	}
}

func TestChanTransportDrop(t *testing.T) {
	a, b := rawPair(t, FaultConfig{Seed: 1, DropProb: 1}, FaultConfig{})
	if _, err := a.Write([]byte("lost")); err != nil {
		t.Fatal(err) // loss is invisible to the sender
	}
	if _, err := readFrameBytes(t, b, time.Now().Add(50*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("dropped frame was delivered (err=%v)", err)
	}
}

func TestChanTransportDuplicate(t *testing.T) {
	a, b := rawPair(t, FaultConfig{Seed: 1, DupProb: 1}, FaultConfig{})
	if _, err := a.Write([]byte("twice")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for i := 0; i < 2; i++ {
		got, err := readFrameBytes(t, b, deadline)
		if err != nil || string(got) != "twice" {
			t.Fatalf("copy %d: got %q, %v", i, got, err)
		}
	}
}

func TestChanTransportReorder(t *testing.T) {
	// ReorderProb 1 holds the first frame and releases it after the second:
	// delivery order is B, A, then C held... so send three and expect B, A.
	a, b := rawPair(t, FaultConfig{Seed: 1, ReorderProb: 1}, FaultConfig{})
	for _, s := range []string{"A", "B"} {
		if _, err := a.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	var got []string
	for i := 0; i < 2; i++ {
		frame, err := readFrameBytes(t, b, deadline)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(frame))
	}
	if got[0] != "B" || got[1] != "A" {
		t.Fatalf("delivery order %v, want [B A]", got)
	}
}

func TestChanTransportCorruptAndTruncate(t *testing.T) {
	orig := []byte("a longer frame payload for fault injection")
	t.Run("corrupt", func(t *testing.T) {
		a, b := rawPair(t, FaultConfig{Seed: 3, CorruptProb: 1}, FaultConfig{})
		if _, err := a.Write(orig); err != nil {
			t.Fatal(err)
		}
		got, err := readFrameBytes(t, b, time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(orig) {
			t.Fatalf("corrupt changed length: %d vs %d", len(got), len(orig))
		}
		diff := 0
		for i := range got {
			if got[i] != orig[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("%d corrupted bytes, want exactly 1", diff)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		a, b := rawPair(t, FaultConfig{Seed: 3, TruncateProb: 1}, FaultConfig{})
		if _, err := a.Write(orig); err != nil {
			t.Fatal(err)
		}
		// A truncation to zero bytes is a silent drop; otherwise the prefix
		// must arrive intact.
		got, err := readFrameBytes(t, b, time.Now().Add(100*time.Millisecond))
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) >= len(orig) || !bytes.Equal(got, orig[:len(got)]) {
			t.Fatalf("truncated frame %q not a proper prefix of %q", got, orig)
		}
	})
}

// TestChanTransportPartitionWindow checks the deterministic partition
// fault: frames whose post-SkipFirst index falls inside a window vanish,
// frames outside it pass, and the link heals after the window — exactly,
// not probabilistically.
func TestChanTransportPartitionWindow(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		a, b := rawPair(t, FaultConfig{Partitions: []PartitionWindow{{From: 2, To: 4}}}, FaultConfig{})
		for _, s := range []string{"f1", "f2", "f3", "f4", "f5", "f6"} {
			if _, err := a.Write([]byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(time.Second)
		for _, want := range []string{"f1", "f5", "f6"} {
			got, err := readFrameBytes(t, b, deadline)
			if err != nil || string(got) != want {
				t.Fatalf("got %q, %v, want %q", got, err, want)
			}
		}
		if _, err := readFrameBytes(t, b, time.Now().Add(50*time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("partitioned frame was delivered (err=%v)", err)
		}
	})
	t.Run("skip-first offsets the window", func(t *testing.T) {
		a, b := rawPair(t, FaultConfig{SkipFirst: 2, Partitions: []PartitionWindow{{From: 1, To: 2}}}, FaultConfig{})
		for _, s := range []string{"h1", "h2", "d1", "d2", "p1"} {
			if _, err := a.Write([]byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(time.Second)
		for _, want := range []string{"h1", "h2", "p1"} {
			got, err := readFrameBytes(t, b, deadline)
			if err != nil || string(got) != want {
				t.Fatalf("got %q, %v, want %q", got, err, want)
			}
		}
	})
}

func TestChanTransportDelay(t *testing.T) {
	a, b := rawPair(t, FaultConfig{Seed: 1, Delay: 80 * time.Millisecond}, FaultConfig{})
	start := time.Now()
	if _, err := a.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("delay blocked the sender for %v", elapsed)
	}
	got, err := readFrameBytes(t, b, time.Now().Add(2*time.Second))
	if err != nil || string(got) != "late" {
		t.Fatalf("got %q, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("frame arrived after %v, want >= 80ms", elapsed)
	}
}

// TestChanTransportEndToEndCluster runs a small full training job over the
// in-process transport — the plumbing the chaos and scale tests build on.
func TestChanTransportEndToEndCluster(t *testing.T) {
	const n = 4
	tr := NewChanTransport()
	ds := testDataset(t)
	m := testModel(t)
	srvCfg := ServerConfig{
		Addr:         "srv",
		Transport:    tr,
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          m.Dim(),
		Steps:        10,
		LearningRate: 2,
		Momentum:     0.9,
		RoundTimeout: 5 * time.Second,
	}
	workers := make([]WorkerConfig, n)
	for i := range workers {
		workers[i] = WorkerConfig{
			Transport: tr,
			WorkerID:  i,
			Model:     m,
			Train:     ds,
			BatchSize: 20,
			ClipNorm:  0.01,
			Seed:      uint64(i + 1),
		}
	}
	srvRes, workerRes, workerErrs := launch(t, srvCfg, workers)
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if srvRes.MissedGradients != 0 {
		t.Errorf("missed gradients = %d", srvRes.MissedGradients)
	}
	if got, want := srvRes.AcceptedGradients, n*srvCfg.Steps; got != want {
		t.Errorf("accepted = %d, want %d", got, want)
	}
	for i, wr := range workerRes {
		if wr.Rounds != srvCfg.Steps {
			t.Errorf("worker %d rounds = %d", i, wr.Rounds)
		}
	}
}
