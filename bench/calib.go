package main

import (
	"math"
	"sync"
	"time"
)

// The sandbox this benchmark runs on is a small shared VM whose speed drifts
// by a quarter within minutes (README.md, Noise). A drift like that moves
// every timing of an invocation together, so the harness times a fixed piece
// of its own arithmetic beside the workload and reports each timing metric at
// a reference machine speed: rates are multiplied by reference ÷ measured,
// times by measured ÷ reference. The calibration code below is the
// benchmark's own and calls nothing under internal/, so no change to the
// program can move it.

const (
	// referenceSpeed is the calibration speed of one goroutine, in units per
	// second, at which a reported timing equals the raw one: what the sandbox
	// reaches in its usual state. referenceSpeedParallel is the same for a
	// calibration on GOMAXPROCS goroutines, on the sandbox's two vCPUs.
	referenceSpeed         = 13000.0
	referenceSpeedParallel = 25000.0
	// calibUnits is the work of one calibration sample, about 23 ms at the
	// reference speed: long enough to time, short enough to fit between
	// batches without changing what they measure.
	calibUnits = 300
)

// calibBuffers is the working set of one calibration goroutine.
type calibBuffers struct {
	a, b, c  []float64
	src, dst []byte
}

func newCalibBuffers() *calibBuffers {
	cb := &calibBuffers{
		a: make([]float64, 4096), b: make([]float64, 4096), c: make([]float64, 2048),
		src: make([]byte, 1<<20), dst: make([]byte, 1<<20),
	}
	for i := range cb.a {
		cb.a[i], cb.b[i] = float64(i), float64(i)*0.5
	}
	for i := range cb.src {
		cb.src[i] = byte(i)
	}
	return cb
}

// unit is one fixed unit of mixed numeric work, the kinds the program's hot
// paths are made of: blocked dot products, exponentials, a random stream and
// a memory copy.
func (cb *calibBuffers) unit() float64 {
	var s0, s1, s2, s3 float64
	for rep := 0; rep < 8; rep++ {
		for i := 0; i+4 <= len(cb.a); i += 4 {
			s0 += cb.a[i] * cb.b[i]
			s1 += cb.a[i+1] * cb.b[i+1]
			s2 += cb.a[i+2] * cb.b[i+2]
			s3 += cb.a[i+3] * cb.b[i+3]
		}
	}
	x := uint64(88172645463325252)
	for i := range cb.c {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cb.c[i] = math.Exp(-float64(x>>11) / (1 << 53))
	}
	copy(cb.dst, cb.src)
	return s0 + s1 + s2 + s3 + cb.c[len(cb.c)-1] + float64(cb.dst[7])
}

// calibrator takes the calibration samples of one phase on as many goroutines
// as the workload keeps busy, so that the loop loads the machine the way the
// workload does: a sequential loop followed the sequential simulator's speed
// closely and the parallel workloads' poorly, and the other way round
// (README.md, Noise).
type calibrator struct {
	bufs    []*calibBuffers
	sinks   []float64
	last    time.Time
	samples []float64
}

func newCalibrator(threads int) *calibrator {
	c := &calibrator{sinks: make([]float64, threads)}
	for i := 0; i < threads; i++ {
		c.bufs = append(c.bufs, newCalibBuffers())
	}
	return c
}

// reference returns the speed at which a reported timing equals the raw one.
func (c *calibrator) reference() float64 {
	if len(c.bufs) == 1 {
		return referenceSpeed
	}
	return referenceSpeedParallel
}

// sample times calibUnits units on every goroutine at once and records the
// combined speed in units per second.
func (c *calibrator) sample() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 1; g < len(c.bufs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < calibUnits; u++ {
				c.sinks[g] += c.bufs[g].unit()
			}
		}()
	}
	for u := 0; u < calibUnits; u++ {
		c.sinks[0] += c.bufs[0].unit()
	}
	wg.Wait()
	c.last = time.Now()
	c.samples = append(c.samples, float64(calibUnits*len(c.bufs))/c.last.Sub(t0).Seconds())
}

// sampleIfDue takes a sample unless one was taken within the last interval.
func (c *calibrator) sampleIfDue(interval time.Duration) {
	if time.Since(c.last) >= interval {
		c.sample()
	}
}

// speed returns the phase's machine speed relative to the reference, from the
// best third of its samples — the same estimator the workload's own timings
// use — and starts the next phase.
func (c *calibrator) speed() float64 {
	s := bestThird(c.samples, true) / c.reference()
	c.samples = c.samples[:0]
	return s
}
