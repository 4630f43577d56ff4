package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// batchOut is what a batch did, as opposed to what it cost (sample).
type batchOut struct {
	// rounds is the number of training rounds the batch executed.
	rounds int
	// attempted and failed count the workload's operations: runs on the
	// local and fleet workloads, worker-round slots on the cluster ones.
	attempted, failed int
	// hash is the FNV-64a of the final parameter bits of every run of the
	// batch, in run order. Every batch runs the same Specs, so every batch
	// of an invocation must return the same hash.
	hash uint64
}

// workload is one of the four benchmark workloads. The harness in this file
// decides how often each method runs and what is timed; the workload decides
// what a batch is.
type workload interface {
	name() string
	// threads is how many goroutines the workload keeps busy: 1 for the
	// sequential simulator, GOMAXPROCS for the cluster and the fleet.
	threads() int
	// sizes returns the full batch, the untimed warm-up batch (a quarter)
	// and the tier-1 smoke batch (a twentieth).
	sizes() (full, warm, smoke size)
	// setupOnce takes the workload's Spec from nothing to its first
	// completed round: synthesis, validation, materialization, binding and
	// handshakes included.
	setupOnce(ctx context.Context) error
	// prepare builds the inputs every batch shares.
	prepare(ctx context.Context) error
	// check runs the workload's reference checks, beyond those every batch
	// makes on itself, on a copy of its Spec that is `rounds` long.
	check(ctx context.Context, rounds int) error
	// batch executes sz of work and brackets its timed region with m.
	batch(ctx context.Context, sz size, m *meter) (batchOut, error)
	// tracedBatch is batch with the timing wrappers installed; it must do
	// identical work and so return the identical hash.
	tracedBatch(ctx context.Context, sz size, m *meter, tr *tracer) (batchOut, error)
	// layerMetrics turns the spans and counts of the traced batches, and the
	// workload's replays, into per-layer metrics.
	layerMetrics(ctx context.Context, tr *tracer, out metricSet) error
}

// options are the knobs of one invocation.
type options struct {
	seed    uint64
	seconds int
	tmpRoot string
}

// How the timed phase is shaped. Work per batch is fixed by count; -seconds
// only decides how many identical batches run, so a slower build measures
// fewer batches, never smaller ones.
const (
	minBatches = 3
	maxBatches = 64
)

// Set-up is sampled repeatedly: the first sample is the only cold one, and a
// single sample of a few milliseconds says more about the machine's last
// scheduling decision than about the program.
const (
	minSetupSamples = 7
	maxSetupSamples = 301
	setupBudget     = 1500 * time.Millisecond
	// setupCalibEvery spaces the calibration samples of the set-up phase;
	// calibPerBatch is how many precede every timed batch.
	setupCalibEvery = 100 * time.Millisecond
	calibPerBatch   = 4
)

func newHash() hash.Hash64 { return fnv.New64a() }

// paramsHash is the hash of one parameter vector.
func paramsHash(p []float64) uint64 {
	h := newHash()
	hashParams(h, p)
	return h.Sum64()
}

// hashParams folds the bit pattern of p into h.
func hashParams(h hash.Hash64, p []float64) {
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:]) // hash.Hash.Write never returns an error
	}
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// bestThird returns the mean of the best third of xs: the highest values when
// higher is better, the lowest otherwise. On a shared machine interference
// only ever slows a batch down, so the best batches are the ones closest to
// what the program costs; README.md has the measurements behind the choice.
func bestThird(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 2) / 3
	if k == 0 {
		return math.NaN()
	}
	if higher {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(k)
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// endToEnd is the outcome of the untraced mode.
type endToEnd struct {
	batches           int
	timed             time.Duration
	attempted, failed int
	hash              uint64
	metrics           metricSet
}

// runEndToEnd measures the five end-to-end metrics of w.
func runEndToEnd(ctx context.Context, w workload, opt options) (*endToEnd, error) {
	cal := newCalibrator(w.threads())
	cal.sample()
	var setups []float64
	for t0 := time.Now(); len(setups) < minSetupSamples || (len(setups) < maxSetupSamples && time.Since(t0) < setupBudget); {
		s0 := time.Now()
		if err := w.setupOnce(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up sample %d: %w", w.name(), len(setups), err)
		}
		setups = append(setups, time.Since(s0).Seconds())
		cal.sampleIfDue(setupCalibEvery)
	}
	setupSpeed := cal.speed()

	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	if err := w.check(ctx, checkRounds); err != nil {
		return nil, fmt.Errorf("%s: reference check: %w", w.name(), err)
	}
	full, warm, _ := w.sizes()
	var m meter
	if _, err := w.batch(ctx, warm, &m); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name(), err)
	}

	res := &endToEnd{metrics: metricSet{}}
	var rps, cpuUS, allocs, rss []float64
	phase := time.Now()
	budget := time.Duration(opt.seconds) * time.Second
	for res.batches < maxBatches && (res.batches < minBatches || time.Since(phase) < budget) {
		// Collect first, so the calibration does not share the machine with
		// the previous batch's garbage collection.
		runtime.GC()
		for i := 0; i < calibPerBatch; i++ {
			cal.sample()
		}
		out, err := w.batch(ctx, full, &m)
		if err != nil {
			return nil, fmt.Errorf("%s: batch %d: %w", w.name(), res.batches, err)
		}
		if res.batches > 0 && out.hash != res.hash {
			return nil, fmt.Errorf("%s: batch %d ended in params hash %016x, batch 0 in %016x: same Specs, different result",
				w.name(), res.batches, out.hash, res.hash)
		}
		res.hash = out.hash
		res.attempted += out.attempted
		res.failed += out.failed
		r := float64(out.rounds)
		rps = append(rps, r/m.last.wall.Seconds())
		cpuUS = append(cpuUS, float64(m.last.cpu.Microseconds())/r)
		allocs = append(allocs, float64(m.last.mallocs)/r)
		rss = append(rss, m.last.peakRSS)
		res.batches++
		fmt.Fprintf(os.Stderr, "bench: %s batch %d: %.3f s wall, %.1f rounds/s, %.2f us cpu/round, %.3f allocs/round, %.1f MiB peak\n",
			w.name(), res.batches, m.last.wall.Seconds(), r/m.last.wall.Seconds(), cpuUS[len(cpuUS)-1], allocs[len(allocs)-1], m.last.peakRSS)
	}
	res.timed = time.Since(phase)
	speed := cal.speed()

	// Timings are the best third of their samples, brought to the reference
	// machine speed; counts and sizes are medians and stay as measured.
	rawSetup, rawRPS, rawCPU := bestThird(setups, false), bestThird(rps, true), bestThird(cpuUS, false)
	fmt.Fprintf(os.Stderr, "bench: %s as measured: setup_s %.6g (machine at %.3f of reference), rounds_per_s %.6g, cpu_us_per_round %.6g (machine at %.3f)\n",
		w.name(), rawSetup, setupSpeed, rawRPS, rawCPU, speed)
	values := map[string]float64{
		"setup_s":          rawSetup * setupSpeed,
		"rounds_per_s":     rawRPS / speed,
		"cpu_us_per_round": rawCPU * speed,
		"allocs_per_round": median(allocs),
		"peak_rss_mb":      median(rss),
	}
	for _, d := range endToEndMetrics {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: end-to-end metric %s is declared but not measured", d.Name)
		}
		res.metrics.set(d.Name, v, d.Unit)
	}
	return res, nil
}

// runSmoke runs every check of w on one small batch and records nothing.
func runSmoke(ctx context.Context, w workload) error {
	if err := w.prepare(ctx); err != nil {
		return fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	_, _, smoke := w.sizes()
	if err := w.check(ctx, smoke.steps); err != nil {
		return fmt.Errorf("%s: reference check: %w", w.name(), err)
	}
	var m meter
	plain, err := w.batch(ctx, smoke, &m)
	if err != nil {
		return fmt.Errorf("%s: batch: %w", w.name(), err)
	}
	if plain.failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name(), plain.failed, plain.attempted)
	}
	traced, err := w.tracedBatch(ctx, smoke, &m, newTracer())
	if err != nil {
		return fmt.Errorf("%s: traced batch: %w", w.name(), err)
	}
	if traced.hash != plain.hash {
		return fmt.Errorf("%s: traced batch ended in params hash %016x, untraced in %016x",
			w.name(), traced.hash, plain.hash)
	}
	return nil
}
