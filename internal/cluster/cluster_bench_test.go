package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"dpbyz/internal/gar"
)

// Benchmark shape: one synchronous round of the paper's parameter server
// at n=64 workers, d=10^4 — the server frames one params broadcast and
// parses one gradient per worker, each worker parses one broadcast and
// frames one gradient.
const (
	benchWorkers = 64
	benchDim     = 10_000
)

// BenchmarkClusterRound measures rounds/sec and allocs/op of the framing
// layer and of the full cluster stack over the in-process transport. One op = one synchronous round at n=64,
// d=1e4.
func BenchmarkClusterRound(b *testing.B) {
	params := Params{Step: 1, Weights: make([]float64, benchDim)}
	grad := Gradient{WorkerID: 0, Step: 1, Grad: make([]float64, benchDim)}
	for i := 0; i < benchDim; i++ {
		params.Weights[i] = float64(i) * 1e-4
		grad.Grad[i] = float64(i) * 1e-6
	}

	b.Run("framing=binary", func(b *testing.B) {
		var wbuf []byte
		var m message
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < benchWorkers; w++ {
				// Server frames the broadcast, worker parses it.
				wbuf = appendParamsFrame(wbuf[:0], params)
				kind, n, err := parseHeader(wbuf, DefaultMaxFrameBytes)
				if err != nil {
					b.Fatal(err)
				}
				if err := decodePayload(kind, wbuf[frameHeaderSize:frameHeaderSize+n], &m); err != nil {
					b.Fatal(err)
				}
				// Worker frames its gradient, server parses it.
				wbuf = appendGradientFrame(wbuf[:0], grad)
				kind, n, err = parseHeader(wbuf, DefaultMaxFrameBytes)
				if err != nil {
					b.Fatal(err)
				}
				if err := decodePayload(kind, wbuf[frameHeaderSize:frameHeaderSize+n], &m); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		m.releaseScratch()
		reportRoundsPerSec(b)
	})

	b.Run("e2e=chan-binary", func(b *testing.B) {
		benchEndToEnd(b, grad.Grad)
	})
}

// benchEndToEnd runs the real Server for b.N rounds against raw echo
// workers over the in-process transport: full framing, fan-in, buffer
// recycling and aggregation, none of the model/dataset compute.
func benchEndToEnd(b *testing.B, gradVec []float64) {
	tr := NewChanTransport()
	g, err := gar.New("average", benchWorkers, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Addr:         "bench",
		Transport:    tr,
		GAR:          g,
		Dim:          benchDim,
		Steps:        b.N,
		LearningRate: 1e-6,
		RoundTimeout: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for id := 0; id < benchWorkers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			raw, err := tr.Dial(ctx, "bench")
			if err != nil {
				b.Error(err)
				return
			}
			c := newConn(raw)
			defer c.close()
			if err := c.sendHello(Hello{WorkerID: id}, time.Time{}); err != nil {
				b.Error(err)
				return
			}
			for {
				m, err := c.receive(time.Time{})
				if err != nil {
					return
				}
				if m.kind != msgParams || m.params.Done {
					return
				}
				g := Gradient{WorkerID: id, Step: m.params.Step, Grad: gradVec}
				if err := c.sendGradient(g, time.Time{}); err != nil {
					return
				}
			}
		}(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := srv.Run(ctx)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	if res.MissedGradients != 0 {
		b.Fatalf("benchmark run missed %d gradients", res.MissedGradients)
	}
	reportRoundsPerSec(b)
}

func reportRoundsPerSec(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "rounds/sec")
	}
}

// BenchmarkDecodeFloat64s times the payload decode every parsed params or
// gradient frame pays, at the wide workloads' d = 10⁴.
func BenchmarkDecodeFloat64s(b *testing.B) {
	src := make([]byte, 8*benchDim)
	for i := range src {
		src[i] = byte(i * 31)
	}
	dst := make([]float64, benchDim)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = decodeFloat64s(dst, src, benchDim)
	}
}

// BenchmarkAppendFloat64s times the payload encode every params, gradient
// and welcome frame pays, at the wide workloads' d = 10⁴.
func BenchmarkAppendFloat64s(b *testing.B) {
	v := make([]float64, benchDim)
	for i := range v {
		v[i] = float64(i) * 1e-6
	}
	dst := make([]byte, 0, 8*benchDim)
	b.SetBytes(int64(8 * benchDim))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = appendFloat64s(dst[:0], v)
	}
}

// BenchmarkChanFrameHop times one d = 10⁴ gradient's hop over the fault-free
// in-process transport: the worker's sendGradient, the server's receive and
// the reader's claim of the decoded vector for a round slot.
func BenchmarkChanFrameHop(b *testing.B) {
	client, server := connPair(b, 0)
	w := newWorkerConn(0, server, false)
	g := Gradient{Step: 1, Grad: make([]float64, benchDim)}
	for i := range g.Grad {
		g.Grad[i] = float64(i) * 1e-6
	}
	b.SetBytes(int64(8 * benchDim))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.sendGradient(g, time.Time{}); err != nil {
			b.Fatal(err)
		}
		m, err := server.receive(time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		slot, ok := w.claim(&m.gradient)
		if !ok {
			b.Fatal("no free slot buffer")
		}
		w.free <- slot // the round loop's return after aggregation
	}
}
