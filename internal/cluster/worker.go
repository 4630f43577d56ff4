package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/worker"
)

// Worker dial-retry defaults (satellite of the churn work: a transient
// ECONNREFUSED during startup must not kill the run).
const (
	// DefaultDialRetries is how many times a failed dial is retried.
	DefaultDialRetries = 3
	// DefaultDialBackoff is the first retry's delay; it doubles per retry.
	DefaultDialBackoff = 50 * time.Millisecond
	// DefaultMaxDialBackoff caps the exponential backoff.
	DefaultMaxDialBackoff = 1 * time.Second
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Addr is the server address to dial.
	Addr string
	// Transport is the communication substrate (nil means TCP). It must
	// match the server's transport.
	Transport Transport
	// MaxFrameBytes caps the payload length the server may declare (0
	// means DefaultMaxFrameBytes).
	MaxFrameBytes int
	// WorkerID is this worker's unique id in [0, n).
	WorkerID int
	// Model is the learning task (must match the server's Dim).
	Model model.Model
	// Train is this worker's local shard of the training data.
	Train *data.Dataset
	// BatchSize is the per-round sample size b.
	BatchSize int
	// ClipNorm is G_max; zero disables clipping.
	ClipNorm float64
	// Mechanism is the worker's local DP randomizer; nil sends gradients in
	// the clear (still unencrypted either way, per the paper's Remark 1).
	Mechanism dp.Mechanism
	// Momentum is the worker-side momentum coefficient (the distributed-
	// momentum technique the paper's stack uses). The momentum state
	// accumulates raw batch gradients and the worker submits
	// noise(clip(m_t)), matching the paper's experimental pipeline; set
	// MomentumPostNoise for the theory-faithful per-sample-clip ordering
	// (see worker.Config.MomentumPostNoise for the trade-off).
	Momentum float64
	// MomentumPostNoise applies momentum after clipping and noising.
	MomentumPostNoise bool
	// Attack, when non-nil, makes this worker Byzantine: each round it
	// submits the run's one colluding adversary's vector (NewCoalition),
	// crafted from the round's recomputed honest submissions, and computes
	// no gradient of its own. A run's Byzantine workers share one Coalition;
	// a Byzantine worker in its own process builds an identical copy.
	Attack *worker.Coalition
	// Deprecated: LearningRate is unused; the adversary observes the exact
	// aggregate instead of estimating it from parameter deltas.
	LearningRate float64
	// Seed drives batch sampling and noise.
	Seed uint64
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many extra dial attempts follow a failure, with
	// capped exponential backoff between them (0 means DefaultDialRetries;
	// negative disables retrying). The same budget governs each rejoin's
	// redial in membership mode.
	DialRetries int
	// DialBackoff is the first retry delay, doubling up to MaxDialBackoff
	// (defaults DefaultDialBackoff / DefaultMaxDialBackoff).
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration
	// Sleep, when non-nil, replaces the real clock for backoff waits so
	// tests stay deterministic; nil uses time.Sleep.
	Sleep func(time.Duration)
	// Membership switches the worker to the epoched-membership handshake:
	// it opens with a join frame instead of hello, waits for the server's
	// welcome at an epoch boundary, fast-forwards its deterministic
	// batch/noise streams to the cohort's position, and on a broken
	// connection redials and rejoins instead of exiting.
	Membership bool
	// MaxRounds, when positive, makes the worker exit after that many
	// rounds even without a Done message (used to model crashed workers).
	MaxRounds int
	// RoundDelay, when positive, sleeps before every gradient submission —
	// a straggler model for exercising the server's round timeout.
	RoundDelay time.Duration
	// DropConnAfter, when positive, makes the worker kill its own
	// connection after that many submitted rounds — once — and, in
	// membership mode, rejoin. A scriptable mid-run crash for churn tests.
	DropConnAfter int
}

func (c *WorkerConfig) validate() error {
	if c.Addr == "" {
		return errors.New("cluster: empty server address")
	}
	if c.WorkerID < 0 {
		return fmt.Errorf("cluster: negative worker id %d", c.WorkerID)
	}
	if c.Model == nil {
		return errors.New("cluster: nil model")
	}
	if c.Train == nil {
		return errors.New("cluster: nil training data")
	}
	if c.Model.Features() != c.Train.Dim() {
		return fmt.Errorf("cluster: model expects %d features, data has %d",
			c.Model.Features(), c.Train.Dim())
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("cluster: non-positive batch size %d", c.BatchSize)
	}
	if c.ClipNorm < 0 {
		return fmt.Errorf("cluster: negative clip norm %v", c.ClipNorm)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("cluster: momentum %v outside [0, 1)", c.Momentum)
	}
	return validateMaxFrame(c.MaxFrameBytes, c.Model.Dim())
}

// WorkerResult summarizes a worker's run.
type WorkerResult struct {
	// Rounds is the number of gradients the worker submitted.
	Rounds int
	// Rejoins counts successful reconnects after a broken connection
	// (membership mode only).
	Rejoins int
	// FastForwarded counts rounds of deterministic stream replay performed
	// to catch up with the cohort across joins and gaps.
	FastForwarded int
	// FinalParams is the trained model when RunWorker returns nil: the
	// Done broadcast's weights, or the last broadcast before MaxRounds
	// stopped the worker. It is the worker's own copy, never an alias of
	// connection internals.
	FinalParams []float64
}

// keepFinal copies the session's last broadcast into FinalParams. weights
// lives in the conn's reusable decode buffer, which the next receive
// overwrites and close recycles to other conns, so the result must own its
// copy; taking it once at the successful exit spares a d-vector copy per
// round.
func (res *WorkerResult) keepFinal(weights []float64) {
	res.FinalParams = append(res.FinalParams[:0], weights...)
}

// workerState is what survives reconnects: the honest pipeline (streams,
// scratch, momentum), nil for a Byzantine worker.
type workerState struct {
	pipe *worker.Pipeline

	// consumed counts the rounds whose batch/noise draws this worker has
	// performed (live or replayed). A cohort member that participated in
	// rounds 0..r−1 has consumed == r, so consumed is exactly the RNG
	// stream position in rounds — the quantity join/welcome frames carry.
	consumed int

	// dropped latches the DropConnAfter self-kill so it fires once.
	dropped bool
}

// newPipeline builds the honest pipeline cfg describes.
func newPipeline(cfg *WorkerConfig) (*worker.Pipeline, error) {
	return worker.New(worker.Config{
		Model: cfg.Model, Train: cfg.Train, BatchSize: cfg.BatchSize,
		ClipNorm: cfg.ClipNorm, Mechanism: cfg.Mechanism,
		Momentum: cfg.Momentum, MomentumPostNoise: cfg.MomentumPostNoise,
	}, randx.New(cfg.Seed), cfg.WorkerID)
}

// NewCoalition returns the colluding adversary a run's Byzantine workers
// share (WorkerConfig.Attack): attack a, its stream derived from seed,
// aggregating with rule — the adversary's own instance, never the
// server's — over shadow pipelines of the honest workers described by
// honest, built as RunWorker builds theirs. The adversary crafts from the
// scheduled honest cohort; under a quorum cut or churn that is not the set
// the server accepts.
func NewCoalition(a attack.Attack, rule gar.GAR, seed uint64, honest []WorkerConfig) (*worker.Coalition, error) {
	shadows := make([]*worker.Pipeline, len(honest))
	for i := range honest {
		p, err := newPipeline(&honest[i])
		if err != nil {
			return nil, fmt.Errorf("cluster: adversary: %w", err)
		}
		shadows[i] = p
	}
	return worker.NewCoalition(a, randx.New(seed), rule, shadows), nil
}

// skipTo replays the stream consumption of the rounds before round that
// this worker missed (worker.Pipeline.Skip), so the next live round is
// bit-identical with a never-disconnected worker's; a Byzantine worker
// draws nothing and only counts.
func (st *workerState) skipTo(res *WorkerResult, round int) {
	if gap := round - st.consumed; gap > 0 {
		if st.pipe != nil {
			st.pipe.Skip(gap)
		}
		st.consumed = round
		res.FastForwarded += gap
	}
}

// errConnLost distinguishes a recoverable transport failure (rejoin in
// membership mode) from a protocol-level or context abort.
var errConnLost = errors.New("cluster: connection lost")

// RunWorker connects to the server and participates in training until the
// server signals completion, the context is cancelled, or MaxRounds is
// reached. With Membership set, a broken connection triggers a redial and
// rejoin (with the same capped backoff as the initial dial) instead of an
// error return.
func RunWorker(ctx context.Context, cfg WorkerConfig) (*WorkerResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Transport == nil {
		cfg.Transport = DefaultTransport
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}

	st := &workerState{}
	if cfg.Attack == nil {
		var err error
		if st.pipe, err = newPipeline(&cfg); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	res := &WorkerResult{}
	for {
		raw, err := dialWithRetry(ctx, &cfg)
		if err != nil {
			return res, err
		}
		err = runSession(ctx, &cfg, st, res, raw)
		if err == nil {
			return res, nil
		}
		if !cfg.Membership || ctx.Err() != nil || !errors.Is(err, errConnLost) {
			return res, err
		}
		res.Rejoins++
	}
}

// dialWithRetry dials the server with capped exponential backoff: the
// first failure waits DialBackoff, each further failure doubles the wait
// up to MaxDialBackoff, for DialRetries retries total. The sleeper is
// injectable so tests pin the schedule without real clocks.
func dialWithRetry(ctx context.Context, cfg *WorkerConfig) (Conn, error) {
	retries := cfg.DialRetries
	if retries == 0 {
		retries = DefaultDialRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := cfg.DialBackoff
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	maxBackoff := cfg.MaxDialBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultMaxDialBackoff
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			cfg.Sleep(backoff)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: dial %s: %w", cfg.Addr, err)
		}
		dialCtx, cancel := context.WithTimeout(ctx, cfg.DialTimeout)
		raw, err := cfg.Transport.Dial(dialCtx, cfg.Addr)
		cancel()
		if err == nil {
			return raw, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dial %s (%d attempts): %w", cfg.Addr, retries+1, lastErr)
}

// runSession drives one connection's lifetime: handshake, then the round
// loop. It returns nil when the run is over (Done received or MaxRounds
// hit), errConnLost when the transport failed and a membership worker
// should rejoin, and any other error to abort.
func runSession(ctx context.Context, cfg *WorkerConfig, st *workerState, res *WorkerResult, raw Conn) error {
	c := newConnMax(raw, cfg.MaxFrameBytes)
	defer c.close()

	// Unblock the blocking receive on cancellation by aborting the raw
	// conn; scratch recycling stays with the deferred close above, which
	// runs only after the receive loop has exited.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = c.abort()
		case <-stop:
		}
	}()

	deadline := time.Now().Add(cfg.DialTimeout)
	if cfg.Membership {
		join := Join{WorkerID: cfg.WorkerID, LastRound: st.consumed - 1}
		if err := c.sendJoin(join, deadline); err != nil {
			return fmt.Errorf("%w: join: %v", errConnLost, err)
		}
	} else {
		if err := c.sendHello(Hello{WorkerID: cfg.WorkerID}, deadline); err != nil {
			return fmt.Errorf("cluster: hello: %w", err)
		}
	}
	for {
		m, err := c.receive(time.Time{})
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("cluster: worker %d: %w", cfg.WorkerID, ctx.Err())
			}
			if cfg.Membership {
				return fmt.Errorf("%w: worker %d receive: %v", errConnLost, cfg.WorkerID, err)
			}
			return fmt.Errorf("cluster: worker %d receive: %w", cfg.WorkerID, err)
		}
		switch m.kind {
		case msgWelcome:
			if !cfg.Membership {
				return fmt.Errorf("cluster: worker %d: %w", cfg.WorkerID, ErrBadMessage)
			}
			// Admission: the welcome's round tag is the cohort's stream
			// position; replay the gap so the next live round is
			// bit-identical with a never-disconnected worker's.
			st.skipTo(res, m.welcome.Round)
			continue
		case msgParams:
		default:
			return fmt.Errorf("cluster: worker %d: %w", cfg.WorkerID, ErrBadMessage)
		}
		params := &m.params
		if params.Done {
			res.keepFinal(params.Weights)
			return nil
		}
		if params.Step < st.consumed {
			// Duplicated or reordered broadcast for a round whose streams
			// were already drawn: recomputing would desync the stream
			// position, so skip it (idempotent round handling, mirroring
			// the server's credit path).
			continue
		}
		// A broadcast gap (partition-dropped frames, admission without an
		// explicit welcome after reconnecting while still a member, or a
		// server resumed from a snapshot) shows up as a skipped-ahead step:
		// replay the missed rounds so the streams stay aligned with the
		// cohort.
		st.skipTo(res, params.Step)

		if cfg.RoundDelay > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: worker %d: %w", cfg.WorkerID, ctx.Err())
			case <-time.After(cfg.RoundDelay):
			}
		}
		var submission []float64
		if cfg.Attack != nil {
			if submission, err = cfg.Attack.Submission(params.Step, params.Weights); err != nil {
				return fmt.Errorf("cluster: worker %d attack: %w", cfg.WorkerID, err)
			}
		} else {
			submission = st.pipe.Step(params.Weights)
		}
		st.consumed++

		msg := Gradient{WorkerID: cfg.WorkerID, Step: params.Step, Grad: submission}
		if err := c.sendGradient(msg, time.Now().Add(cfg.DialTimeout)); err != nil {
			if cfg.Membership {
				return fmt.Errorf("%w: worker %d send: %v", errConnLost, cfg.WorkerID, err)
			}
			return fmt.Errorf("cluster: worker %d send: %w", cfg.WorkerID, err)
		}
		res.Rounds++
		if cfg.MaxRounds > 0 && res.Rounds >= cfg.MaxRounds {
			// No receive since: params.Weights is still this round's broadcast.
			res.keepFinal(params.Weights)
			return nil
		}
		if cfg.DropConnAfter > 0 && !st.dropped && res.Rounds >= cfg.DropConnAfter {
			// Scripted mid-run crash: kill the connection once. In
			// membership mode the caller rejoins; otherwise this ends the
			// worker like a real broken link would.
			st.dropped = true
			_ = c.abort()
			if cfg.Membership {
				return fmt.Errorf("%w: worker %d dropped own conn (scripted churn)", errConnLost, cfg.WorkerID)
			}
			return fmt.Errorf("cluster: worker %d dropped own conn (scripted churn)", cfg.WorkerID)
		}
	}
}
