package cluster

import (
	"bytes"
	"math/bits"
	"sync"
	"testing"
	"time"

	"dpbyz/internal/vecmath"
)

// TestBroadcastFrameSurvivesCorruptingLink pins the encode-once broadcast:
// the server writes one shared params frame to every member, so a link that
// corrupts worker 0's downlink (first in view order) must corrupt its own
// copy only. Workers 1 and 2 must read byte-identical frames every round,
// and worker 0's frame must differ from theirs in exactly the one bit the
// fault flips — a mutated shared buffer would hand all three the same bytes.
func TestBroadcastFrameSurvivesCorruptingLink(t *testing.T) {
	const n, steps, dim = 3, 4, 8
	tr := NewChanTransport()
	srv, err := NewServer(ServerConfig{
		Addr:         "shared-frame",
		Transport:    tr,
		GAR:          mustGAR(t, "average", n, 0),
		Dim:          dim,
		Steps:        steps,
		LearningRate: 1,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := testContext(t)
	defer cancel()

	// Each scripted worker reads the raw frame of every broadcast (the
	// ChanTransport delivers one frame per Read) and answers rounds with a
	// constant gradient; frame `steps` is the final Done broadcast.
	frames := make([][][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		dialer := Transport(tr)
		if id == 0 {
			dialer = tr.WithFaults(FaultConfig{}, FaultConfig{Seed: 5, CorruptProb: 1})
		}
		c := helloOnly(t, dialer, "shared-frame", id)
		defer c.close()
		wg.Add(1)
		go func(id int, c *conn) {
			defer wg.Done()
			grad := make([]float64, dim)
			for j := range grad {
				grad[j] = float64(id + 1)
			}
			buf := make([]byte, 1<<12)
			for step := 0; step <= steps; step++ {
				deadline := time.Now().Add(10 * time.Second)
				if errs[id] = c.raw.SetReadDeadline(deadline); errs[id] != nil {
					return
				}
				k, err := c.raw.Read(buf)
				if err != nil {
					errs[id] = err
					return
				}
				frames[id] = append(frames[id], append([]byte(nil), buf[:k]...))
				if step == steps {
					return
				}
				if errs[id] = c.sendGradient(Gradient{WorkerID: id, Step: step, Grad: grad}, deadline); errs[id] != nil {
					return
				}
			}
		}(id, c)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("scripted worker %d: %v", id, err)
		}
	}
	if res.MissedGradients != 0 {
		t.Fatalf("missed gradients = %d, want 0", res.MissedGradients)
	}
	for step := 0; step <= steps; step++ {
		clean := frames[1][step]
		if !bytes.Equal(clean, frames[2][step]) {
			t.Fatalf("broadcast %d: workers 1 and 2 read different frames", step)
		}
		want := appendParamsFrame(nil, Params{Step: step, Weights: paramsWeights(t, clean), Done: step == steps})
		if !bytes.Equal(clean, want) {
			t.Fatalf("broadcast %d: worker 1's frame is not a well-formed params frame for the step", step)
		}
		corrupted := frames[0][step]
		if len(corrupted) != len(clean) {
			t.Fatalf("broadcast %d: corrupted frame has %d bytes, clean %d", step, len(corrupted), len(clean))
		}
		flipped := 0
		for i := range clean {
			flipped += bits.OnesCount8(clean[i] ^ corrupted[i])
		}
		if flipped != 1 {
			t.Fatalf("broadcast %d: corrupted frame differs from the clean one in %d bits, want 1", step, flipped)
		}
	}
	if got := paramsWeights(t, frames[1][steps]); !vecmath.ApproxEqual(got, res.Params, 0) {
		t.Fatalf("final broadcast weights %v != server params %v", got, res.Params)
	}
}

// paramsWeights decodes the weights of a raw params frame.
func paramsWeights(t *testing.T, frame []byte) []float64 {
	t.Helper()
	kind, k, err := parseHeader(frame, DefaultMaxFrameBytes)
	if err != nil || kind != msgParams || k != len(frame)-frameHeaderSize {
		t.Fatalf("bad params frame: kind %d, declared %d of %d bytes, err %v", kind, k, len(frame), err)
	}
	var m message
	if err := decodePayload(kind, frame[frameHeaderSize:], &m); err != nil {
		t.Fatal(err)
	}
	defer m.releaseScratch()
	return append([]float64(nil), m.params.Weights...)
}
