// Package worker is the honest worker of the paper's §2.3, written once:
// sample a batch, compute the gradient, clip it to G_max (Assumption 1),
// inject the DP noise of Eq. 7 and apply distributed momentum. The
// simulator steps n Pipelines in one process (StepAll) and a cluster worker
// steps one behind a connection, so an honest submission is the same bits
// on both backends because it is the same code, and a rejoining worker's
// replay (Skip) lives next to the draws it has to mirror.
//
// The paper's colluding Byzantine coalition is written once here too:
// Adversary crafts the round's one Byzantine vector from the honest
// submissions, and Coalition recomputes those submissions with shadow
// pipelines for a cluster, whose Byzantine workers hold none. A Pipeline
// counts no privacy spend: each Step is one release, and the run ledger
// (spec.Spec.Privacy) charges one per round from the Spec and the round
// count.
//
//dpbyz:deterministic
package worker

import (
	"errors"
	"fmt"
	"math"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/vecmath"
)

// Stream-derivation labels under a run's root stream, one per purpose so
// that adding a consumer never perturbs existing ones. Batch and noise
// streams are derived per worker id by New; the run's one attack stream is
// the Adversary's.
const (
	LabelBatch uint64 = iota + 1
	LabelNoise
	LabelAttack
)

// Config describes one honest worker's per-round procedure.
type Config struct {
	// Model is the learning task.
	Model model.Model
	// Train is the dataset this worker samples its batches from.
	Train *data.Dataset
	// BatchSize is the per-round sample size b.
	BatchSize int
	// ClipNorm is G_max; zero disables clipping.
	ClipNorm float64
	// Mechanism is the local DP randomizer; nil disables privacy.
	Mechanism dp.Mechanism
	// Momentum is the worker-side ("distributed") momentum coefficient μ of
	// El-Mhamdi et al. (ICLR 2021, the paper's ref [16]); zero disables it.
	Momentum float64
	// MomentumPostNoise selects the pipeline ordering:
	//
	//   false (default, the paper's experimental pipeline): the momentum
	//   state accumulates RAW batch gradients and the worker submits
	//   noise(clip(m_t)) — clipping bounds every submission to G_max, so
	//   lr = 2 with μ = 0.99 stays stable and the per-step noise stays
	//   i.i.d. The DP caveat: the release's true sensitivity is 2·G_max
	//   (ball diameter) rather than the 2·G_max/b the noise is calibrated
	//   to, because the clip wraps the whole momentum state instead of
	//   per-sample gradients. This is faithful to the paper's figures.
	//
	//   true (theory-faithful DP): per-sample clip → noise → momentum as
	//   post-processing of the released sequence. The (ε, δ) guarantee is
	//   exact, but the momentum then amplifies the injected noise ~1/(1−μ)
	//   in parameter space and the paper's hyperparameters diverge;
	//   simulate's TestMomentumOrderingChangesDPOutcome measures the gap.
	MomentumPostNoise bool
}

// Pipeline is one worker's round state: its two randomness streams, the
// momentum accumulator and the scratch the step reuses. Every buffer is
// pipeline-owned, so pipelines stepped on separate goroutines share
// nothing mutable.
type Pipeline struct {
	cfg     Config
	batcher *data.Batcher
	noise   *randx.Stream
	// grad holds the step's submission; clipBuf is the per-sample gradient
	// scratch (and Skip's sink); momentum is nil when disabled.
	grad, clipBuf, momentum []float64
	batch                   []data.Point
}

// New returns worker id's pipeline, its batch and noise streams derived
// from root (which is not advanced).
func New(cfg Config, root *randx.Stream, id int) (*Pipeline, error) {
	b, err := data.NewBatcher(cfg.Train, cfg.BatchSize, root.Derive(LabelBatch, uint64(id)))
	if err != nil {
		return nil, fmt.Errorf("worker %d batcher: %w", id, err)
	}
	d := cfg.Model.Dim()
	p := &Pipeline{
		cfg:     cfg,
		batcher: b,
		noise:   root.Derive(LabelNoise, uint64(id)),
		grad:    make([]float64, d),
		clipBuf: make([]float64, d),
	}
	if cfg.Momentum > 0 {
		p.momentum = make([]float64, d)
	}
	return p, nil
}

// Step runs one round at parameters w and returns the submission, which
// aliases a pipeline-owned buffer valid until the next Step.
//
//dpbyz:hotpath
func (p *Pipeline) Step(w []float64) []float64 {
	cfg := &p.cfg
	p.batch = p.batcher.Next()
	if p.momentum != nil && !cfg.MomentumPostNoise {
		// Paper pipeline: momentum over raw gradients, then clip, then
		// noise (see Config.MomentumPostNoise for the DP caveat).
		cfg.Model.Gradient(p.grad, w, p.batch)
		sq := p.accumulate()
		// vecmath.ClipL2 on the norm accumulate already summed, in the same
		// order, so the momentum is read once.
		if n := math.Sqrt(sq); cfg.ClipNorm > 0 && n > cfg.ClipNorm {
			vecmath.ScaleInPlace(cfg.ClipNorm/n, p.grad)
		}
		if cfg.Mechanism != nil {
			cfg.Mechanism.Perturb(p.grad, p.noise)
		}
		return p.grad
	}
	// Theory pipeline: per-sample clipping (Assumption 1) gives the
	// 2·G_max/b sensitivity the noise is calibrated to; the batched kernel
	// folds the clip into the gradient sweep, priced with the dataset's
	// cached feature norms. Momentum as post-processing of the noisy
	// release keeps the DP guarantee exact.
	model.ClippedGradientWithNorms(cfg.Model, p.grad, p.clipBuf, w,
		p.batch, p.batcher.BatchSqNorms(), cfg.ClipNorm)
	if cfg.Mechanism != nil {
		cfg.Mechanism.Perturb(p.grad, p.noise)
	}
	if p.momentum != nil {
		p.accumulate()
	}
	return p.grad
}

// StepAll runs one round at parameters w on every pipeline and stores
// pipeline i's submission in dst[i], aliasing its buffer as Step's result
// does. Pipelines share nothing mutable, so the sweep splits across
// goroutines when vecmath.ChunkWorkers says its pipelines·b·d work is worth
// it; every submission is the same bits either way.
//
//dpbyz:hotpath
func StepAll(dst [][]float64, pipes []*Pipeline, w []float64) {
	if len(pipes) == 0 {
		return
	}
	work := len(pipes) * pipes[0].cfg.BatchSize * len(w)
	if nw := min(vecmath.ChunkWorkers(work), len(pipes)); nw > 1 {
		// A sweep past the grain pays the fixed goroutine dispatch; below it
		// the loop runs inline and allocates nothing.
		//dpbyz:allowalloc
		vecmath.RunChunked(len(pipes), nw, func(lo, hi int) {
			stepRange(dst, pipes, w, lo, hi)
		})
		return
	}
	stepRange(dst, pipes, w, 0, len(pipes))
}

// stepRange steps pipelines [lo, hi) into dst.
//
//dpbyz:hotpath
func stepRange(dst [][]float64, pipes []*Pipeline, w []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = pipes[i].Step(w)
	}
}

// accumulate folds grad into the momentum state, m ← μ·m + g, leaves m in
// grad and returns Σ m² — vecmath.SqNorm's sum, in ascending j.
//
//dpbyz:hotpath
func (p *Pipeline) accumulate() float64 {
	mu := p.cfg.Momentum
	var sq float64
	for j, g := range p.grad {
		m := mu*p.momentum[j] + g
		p.momentum[j] = m
		p.grad[j] = m
		sq += m * m
	}
	return sq
}

// Skip replays the stream consumption of rounds missed Steps: one batch
// draw plus (with DP) one perturbation per round, discarded into scratch.
// Stream positions cannot be jumped arithmetically — ziggurat/rejection
// sampling consumes a variable number of variates — so replay is the only
// way to land the streams exactly where a worker that stepped every round
// has them. No gradient math runs, the momentum state is untouched, and no
// privacy is spent (noise drawn but never released is not a release).
//
//dpbyz:hotpath
func (p *Pipeline) Skip(rounds int) {
	for i := 0; i < rounds; i++ {
		p.batcher.Next()
		if p.cfg.Mechanism != nil {
			p.cfg.Mechanism.Perturb(p.clipBuf, p.noise)
		}
	}
}

// Batch returns the batch the last Step sampled, owned by the pipeline and
// valid until the next Step or Skip.
func (p *Pipeline) Batch() []data.Point { return p.batch }

// State captures the pipeline's resumable state — both stream positions
// and a copy of the momentum buffer.
func (p *Pipeline) State() checkpoint.WorkerRunState {
	ws := checkpoint.WorkerRunState{Batch: p.batcher.RNGState(), Noise: p.noise.State()}
	if p.momentum != nil {
		ws.Momentum = append([]float64(nil), p.momentum...)
	}
	return ws
}

// SetState rewinds the pipeline to a snapshot taken by State, after which
// its submissions are bit-identical to the snapshotted pipeline's.
func (p *Pipeline) SetState(ws checkpoint.WorkerRunState) error {
	if ws.Momentum != nil && p.momentum == nil {
		return errors.New("snapshot has momentum state but worker momentum is disabled")
	}
	p.batcher.SetRNGState(ws.Batch)
	p.noise.SetState(ws.Noise)
	copy(p.momentum, ws.Momentum)
	return nil
}
