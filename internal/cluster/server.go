package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/round"
	"dpbyz/internal/vecmath"
)

// DefaultRoundTimeout bounds how long the server waits for gradients each
// round before substituting zero vectors for the missing workers.
const DefaultRoundTimeout = 10 * time.Second

// ServerConfig configures the parameter server.
type ServerConfig struct {
	// Addr is the listen address in the transport's format, e.g.
	// "127.0.0.1:0" for TCP.
	Addr string
	// Transport is the communication substrate (nil means TCP).
	Transport Transport
	// MaxFrameBytes caps the payload length a peer may declare (0 means
	// DefaultMaxFrameBytes). It must fit a Dim-sized gradient frame.
	MaxFrameBytes int
	// GAR is the aggregation rule of a fixed cohort: its N() workers, ids
	// [0, N), are gathered before the first round and form the run's one
	// epoch — nobody is admitted or evicted afterwards, a lost worker's
	// slots are zero-padded to the end. Leave it nil when Membership is set.
	GAR gar.GAR
	// Dim is the model dimension d.
	Dim int
	// Steps is the number of synchronous rounds.
	Steps int
	// LearningRate and Momentum define the Eq. 9 update.
	LearningRate float64
	Momentum     float64
	// InitParams optionally sets w_0 (defaults to the zero vector).
	InitParams []float64
	// RoundTimeout bounds each round — parameter broadcast plus gradient
	// collection share one wall-clock budget — and missing gradients become
	// zero vectors per §2.1 (default DefaultRoundTimeout).
	RoundTimeout time.Duration
	// Quorum, when positive and below N, enables bounded-staleness rounds:
	// the round commits as soon as Quorum submissions have arrived instead
	// of waiting the full timeout for all N (typically n − f − stragglers).
	// Workers that missed the cut are zero-padded and counted as missed;
	// their in-flight frames land one round late.
	Quorum int
	// LateCredit accepts a frame that is exactly one round stale into the
	// current round when the sender's slot is still empty — the
	// bounded-staleness (bound 1) crediting rule. Older frames and
	// duplicates are discarded either way.
	LateCredit bool
	// Membership, when set, lets the population change (see
	// MembershipConfig): the worker set is re-derived at epoch boundaries,
	// GAR is nil (the per-epoch factory replaces it) and Quorum is derived
	// per epoch from the live view and the membership Stragglers budget. A
	// fixed cohort is the same run with one epoch and Min = Max = GAR.N().
	Membership *MembershipConfig
	// Logf, when non-nil, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...any)

	// Resume, when non-nil, continues a run from a snapshot written by
	// SnapshotFunc: the first broadcast carries Resume.Step, only the rounds
	// from there to Steps execute, the snapshot's params and velocity
	// replace InitParams and the zero momentum buffer, and the run re-enters
	// the snapshot's open epoch with its books (round.Committer.Restore).
	// The workers that reconnect are that epoch's view; the gather waits for
	// MinWorkers of them, and a member that never returns is mute until the
	// next boundary evicts it. Workers replay their streams to the first
	// broadcast, so the run continues exactly unless they keep worker
	// momentum, which no snapshot holds. NewServer rejects a snapshot that
	// fails validation, has another dimension, lies beyond Steps or carries
	// books that do not fit the population.
	Resume *checkpoint.RunState
	// StepHook, when non-nil, is invoked after every completed round with
	// the round's metric record and a read-only view of the current
	// parameter vector (valid only during the call). A non-nil error aborts
	// the run.
	StepHook func(rec metrics.StepRecord, params []float64) error
	// SnapshotEvery, when positive together with SnapshotFunc, captures the
	// server's resumable state every k completed rounds (and after the final
	// round): parameters, velocity, completed step count and the epoch books
	// with the open view's missed streaks. Worker state lives in the worker
	// processes and is not in it.
	SnapshotEvery int
	// SnapshotFunc receives each periodic snapshot, whose buffers are
	// copies; a non-nil error aborts the run.
	SnapshotFunc func(*checkpoint.RunState) error
}

func (c *ServerConfig) validate() error {
	if c.Membership != nil {
		if c.GAR != nil {
			return errors.New("cluster: membership mode re-derives the GAR per epoch; set Membership.NewGAR, not GAR")
		}
		if c.Quorum != 0 {
			return errors.New("cluster: membership mode derives the quorum per epoch; set Membership.Stragglers, not Quorum")
		}
		if err := c.Membership.validate(); err != nil {
			return err
		}
	} else if c.GAR == nil {
		return errors.New("cluster: nil aggregation rule")
	}
	if c.Dim <= 0 {
		return fmt.Errorf("cluster: non-positive dim %d", c.Dim)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("cluster: non-positive steps %d", c.Steps)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("cluster: non-positive learning rate %v", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("cluster: momentum %v outside [0, 1)", c.Momentum)
	}
	if c.InitParams != nil && len(c.InitParams) != c.Dim {
		return fmt.Errorf("cluster: init params dim %d, want %d", len(c.InitParams), c.Dim)
	}
	if c.Membership == nil && (c.Quorum < 0 || c.Quorum > c.GAR.N()) {
		return fmt.Errorf("cluster: quorum %d outside [0, n=%d]", c.Quorum, c.GAR.N())
	}
	if err := validateMaxFrame(c.MaxFrameBytes, c.Dim); err != nil {
		return err
	}
	return nil
}

// validateMaxFrame rejects frame caps that cannot carry a dim-sized
// vector frame, or that overflow the header's uint32 length field.
func validateMaxFrame(maxFrame, dim int) error {
	if maxFrame < 0 {
		return fmt.Errorf("cluster: negative max frame bytes %d", maxFrame)
	}
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if int64(maxFrame) > int64(math.MaxUint32) {
		return fmt.Errorf("cluster: max frame bytes %d exceeds the uint32 length field", maxFrame)
	}
	if need := 12 + 8*dim; need > maxFrame {
		return fmt.Errorf("cluster: max frame bytes %d cannot fit a dim-%d vector frame (%d bytes)",
			maxFrame, dim, need)
	}
	return nil
}

// MembershipConfig opens the population: the worker set is re-derived at
// epoch boundaries from live connections (see internal/membership). Workers
// may join mid-run (admitted at the next boundary), crash or fall silent
// (evicted at the boundary), and rejoin with a fast-forward welcome.
type MembershipConfig struct {
	// MinWorkers is the population floor: the run starts once this many
	// workers have joined and aborts if a boundary would leave fewer.
	MinWorkers int
	// MaxWorkers caps the population and the worker-id range [0, MaxWorkers).
	MaxWorkers int
	// FRatio re-derives each epoch's Byzantine allowance f_e = ⌊FRatio·n_e⌋.
	FRatio float64
	// EpochRounds is the boundary spacing in rounds. A member is evicted
	// after membership.DefaultEvictAfter consecutive missed rounds.
	EpochRounds int
	// Stragglers is the per-epoch bounded-staleness budget: each epoch's
	// commit quorum is n_e − f_e − Stragglers (0 = fully synchronous).
	// Pair with ServerConfig.LateCredit exactly as with a fixed Quorum.
	Stragglers int
	// NewGAR materializes the epoch's aggregation rule for a live view of
	// n workers with f Byzantine — the per-epoch re-materialization that
	// keeps the GAR's breakdown point matched to the actual population.
	NewGAR func(n, f int) (gar.GAR, error)
}

func (mc *MembershipConfig) validate() error {
	if err := mc.trackerConfig().Validate(); err != nil {
		return err
	}
	if mc.Stragglers < 0 {
		return fmt.Errorf("cluster: negative membership stragglers %d", mc.Stragglers)
	}
	if mc.NewGAR == nil {
		return errors.New("cluster: membership mode needs a NewGAR factory")
	}
	return nil
}

func (mc *MembershipConfig) trackerConfig() membership.Config {
	return membership.Config{
		MinWorkers:  mc.MinWorkers,
		MaxWorkers:  mc.MaxWorkers,
		FRatio:      mc.FRatio,
		EpochRounds: mc.EpochRounds,
	}
}

// ServerResult is the outcome of a full networked training run.
type ServerResult struct {
	// Params is the final parameter vector.
	Params []float64
	// History records the aggregate-gradient norm per round in the Loss
	// field (the server holds no data and cannot compute losses, matching
	// the paper's model).
	History *metrics.History
	// MissedGradients counts (worker, round) pairs that timed out and were
	// replaced by zero vectors. AcceptedGradients + MissedGradients equals
	// exactly Σ N_e × rounds_e over the run, a resumed run's snapshot books
	// included. Both are sums of the epoch books.
	MissedGradients int
	// AcceptedGradients counts submissions that entered aggregation.
	AcceptedGradients int
	// DiscardedSubmissions counts frames thrown away before aggregation, up
	// to the final commit: stale or future steps, duplicates, spoofed worker
	// ids, wrong dimensions, or floods beyond the per-worker buffer depth.
	// Frames turned away while the run tears down are logged, not counted,
	// so the count equals the final snapshot's.
	DiscardedSubmissions int
	// CreditedGradients counts accepted submissions that were one round
	// stale and credited under LateCredit (a subset of AcceptedGradients).
	// It and DiscardedSubmissions continue a resumed run's counts: every
	// snapshot carries both as RunState.Quorum.
	CreditedGradients int
	// Epochs holds the per-epoch membership books (Membership configs only;
	// a fixed cohort's single epoch is the totals above). Over a completed
	// run Σ (Accepted_e + Missed_e) == Σ N_e × Rounds_e exactly;
	// membership.BalanceEpochs checks the identity.
	Epochs []membership.EpochStat
}

// roundPlan is what NewServer normalises either config shape into, and all
// the round loop ever consults: the population bounds the tracker enforces
// and the two per-epoch derivations, view → GAR and view → commit target.
type roundPlan struct {
	members membership.Config
	newGAR  func(n, f int) (gar.GAR, error)
	// target is how many filled slots commit a round of the view: the
	// quorum under bounded staleness, all of them otherwise.
	target func(v membership.View) int
	// epochBooks reports the per-epoch ledgers in ServerResult.Epochs.
	epochBooks bool
}

// newRoundPlan normalises a validated config. A fixed cohort is the
// population that never changes: Min = Max = GAR.N(), one epoch spanning the
// run (its only boundary is the one every run opens with), the configured
// rule itself every time, and Quorum, or n, as the commit target.
func newRoundPlan(cfg *ServerConfig) roundPlan {
	if mc := cfg.Membership; mc != nil {
		return roundPlan{
			members: mc.trackerConfig(),
			newGAR:  mc.NewGAR,
			target: func(v membership.View) int {
				if mc.Stragglers > 0 {
					return v.Quorum(mc.Stragglers)
				}
				return v.N()
			},
			epochBooks: true,
		}
	}
	rule, n := cfg.GAR, cfg.GAR.N()
	target := n
	if cfg.Quorum > 0 && cfg.Quorum < n {
		target = cfg.Quorum
	}
	return roundPlan{
		members: membership.Config{MinWorkers: n, MaxWorkers: n, EpochRounds: cfg.Steps},
		newGAR:  func(int, int) (gar.GAR, error) { return rule, nil },
		target:  func(membership.View) int { return target },
	}
}

// logHandshaken is the progress line for a registered handshake. It is the
// one event that tells an observer a dialled worker now counts towards the
// population, so tests order their churn schedules on it.
const logHandshaken = "worker %d handshaken"

// Server drives synchronous distributed SGD over a Transport.
type Server struct {
	cfg      ServerConfig
	plan     roundPlan
	tracker  *membership.Tracker
	table    *membership.SlotTable
	commit   *round.Committer
	listener Listener
	logf     func(string, ...any)
	// discarded counts the frames turned away before aggregation. Only the
	// round loop touches it; readers count their turn-aways in rejected,
	// which the loop moves over (tally) before every commit and snapshot.
	discarded int
	rejected  atomic.Int64
}

// NewServer binds the listen endpoint so that Addr() is known before any
// worker starts. Call Run to begin training.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.Transport == nil {
		cfg.Transport = DefaultTransport
	}
	plan := newRoundPlan(&cfg)
	tracker, err := membership.NewTracker(plan.members)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, plan: plan, tracker: tracker, logf: cfg.Logf}
	s.table = membership.NewSlotTable(tracker, cfg.LateCredit)
	if s.commit, err = round.New(round.Config{
		Name: "cluster", Unit: "round", Dim: cfg.Dim, Steps: cfg.Steps,
		Momentum: cfg.Momentum, Rate: func(int) float64 { return cfg.LearningRate },
		InitParams: cfg.InitParams, Resume: cfg.Resume, Measure: aggNormRecord,
		Hook: cfg.StepHook, SnapshotEvery: cfg.SnapshotEvery, SnapshotFunc: cfg.SnapshotFunc,
		Table: s.table, Extend: s.snapshot,
	}); err != nil {
		return nil, err
	}
	if st := cfg.Resume; st != nil && st.Quorum != nil {
		s.discarded = st.Quorum.Discarded
	}
	if s.listener, err = cfg.Transport.Listen(cfg.Addr); err != nil {
		return nil, err
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	return s, nil
}

// snapshot adds the two run counters the epoch books do not hold — frames
// discarded, and accepted frames credited a round late — so a resumed run
// continues them; round.Committer.Restore hands the credited count back to
// the slot table.
func (s *Server) snapshot(st *checkpoint.RunState) {
	_, _, credited := s.table.Totals()
	st.Quorum = &checkpoint.QuorumRunState{Discarded: s.tally(), Credited: credited}
}

// tally moves the readers' turn-aways into the run's discard count and
// returns it. The round loop calls it before every commit and snapshot and
// never after the final commit, so a frame turned away during teardown does
// not reach the count.
func (s *Server) tally() int {
	s.discarded += int(s.rejected.Swap(0))
	return s.discarded
}

// aggNormRecord is the server's step record. The server holds no data and
// cannot compute a loss, so Loss carries a proxy: the aggregate's norm.
//
//dpbyz:hotpath
func aggNormRecord(step int, _, agg []float64) metrics.StepRecord {
	return metrics.StepRecord{Step: step, Loss: vecmath.Norm(agg), Accuracy: math.NaN(), VNRatio: math.NaN()}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close releases the listen endpoint. Run closes it on return; Close is
// for aborting a server that never ran.
func (s *Server) Close() error { return s.listener.Close() }

// Run is the parameter server's one round loop (§2.1): gather the floor
// population, then per round broadcast w_t, collect, zero-pad the missing,
// aggregate with the epoch's GAR and apply the momentum update.
//
// The run is partitioned into epochs. At each boundary the slot table
// advances the view — admitting handshaken workers (one that opened with a
// join gets a welcome frame carrying the first round it will serve plus the
// current params and velocity, so a rejoiner fast-forwards its deterministic
// streams and resumes bit-identically with the cohort), evicting crashed or
// silent ones — and the server re-derives the GAR and commit target for the
// new population. Within an epoch the view is frozen, so every round's books
// have a well-defined n_e and the per-epoch ledger
// Accepted_e + Missed_e == n_e × rounds_e stays exact. A fixed cohort is the
// one-epoch case (see newRoundPlan); nothing below asks which shape the
// config had.
//
// Run always closes the listener and all connections, and waits for its
// reader goroutines, before returning. Cancelling the context aborts the
// gather phase, or training at the next round check or mid-collect: the
// interrupted round commits nothing and the completed prefix is flushed as
// one final snapshot. Every error from the round loop is a *round.Stopped
// counting the committed rounds.
func (s *Server) Run(ctx context.Context) (*ServerResult, error) {
	defer s.listener.Close()
	plan, tracker, table := s.plan, s.tracker, s.table
	reg := newMemberRegistry(tracker)
	// Room for a current and a late frame from every possible member, so a
	// reader rarely parks on the hand-off while the loop aggregates.
	inbox := make(chan submission, 2*plan.members.MaxWorkers)

	// Fan-in: every connection gets a reader goroutine that validates the
	// sender and dimension and pushes the decoded gradient into the shared
	// inbox. The vector is handed over, not copied (workerConn.claim): one of
	// the connection's free buffers becomes the conn's next decode target, so
	// each buffer has one owner — the conn, the inbox or round loop, or the
	// free list it returns to. Closing the registry unblocks a reader stuck
	// on a full inbox during shutdown and aborts the connection of one stuck
	// in receive. On exit the reader reports the disconnect and recycles the
	// conn (readers own their conn's close).
	read := func(w *workerConn) {
		defer reg.readerExited(w)
		for {
			m, err := w.c.receive(time.Time{})
			if err != nil {
				return
			}
			if m.kind != msgGradient {
				s.logf("worker %d sent non-gradient message", w.id)
				return
			}
			g := &m.gradient
			// A gradient claiming another worker's id is spoofed: the
			// connection authenticates the sender.
			if g.WorkerID != w.id || len(g.Grad) != s.cfg.Dim {
				s.rejected.Add(1)
				s.logf("discarding bad gradient from worker %d (claimed %d, dim %d)",
					w.id, g.WorkerID, len(g.Grad))
				continue
			}
			buf, ok := w.claim(g)
			if !ok {
				// Buffer depth exhausted: the peer is sending faster than
				// rounds complete (duplication fault or flood).
				s.rejected.Add(1)
				continue
			}
			select {
			case inbox <- submission{src: w, step: g.Step, grad: buf}:
			case <-reg.done:
				return
			}
		}
	}

	// The accept loop runs for the whole training run: handshakes are
	// welcome at any time and admitted at the next boundary. It ends when
	// shutdown closes the listener; a handshake still in flight then is
	// turned away by the closed registry.
	go func() {
		for {
			raw, err := s.listener.Accept()
			if err != nil {
				return
			}
			c := newConnMax(raw, s.cfg.MaxFrameBytes)
			m, err := c.receive(time.Now().Add(s.cfg.RoundTimeout))
			if err != nil || (m.kind != msgJoin && m.kind != msgHello) {
				s.logf("rejecting connection without join/hello: %v", err)
				_ = c.close()
				continue
			}
			id, joined := m.hello.WorkerID, false
			if m.kind == msgJoin {
				id, joined = m.join.WorkerID, true
			}
			w, err := reg.offer(id, c, joined)
			if err != nil {
				s.logf("rejecting handshake from worker %d: %v", id, err)
				_ = c.close()
				continue
			}
			s.logf(logHandshaken, id)
			go read(w)
		}
	}()

	// shutdown tears down the accept loop, readers and connections. The
	// success path calls it before building the result so the discard
	// counter is final; the defer covers error returns.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			s.listener.Close()
			reg.close()
		})
	}
	defer shutdown()

	// Gather phase: the run starts once the floor population has handshaken
	// (a completed run resumed from its final snapshot has no round to wait
	// for).
	start := s.commit.Start()
	for start < s.cfg.Steps && tracker.Population() < plan.members.MinWorkers {
		select {
		case <-reg.notify:
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: gather: %w", ctx.Err())
		}
	}

	w, velocity := s.commit.Params(), s.commit.Velocity()
	// agg is reused every round via the GAR's pooled AggregateInto path, and
	// zeros stands in for every unfilled slot (Aggregate never mutates its
	// inputs, so one shared zero vector is safe), so the steady-state round
	// loop allocates no gradient-sized slices.
	agg := make([]float64, s.cfg.Dim)
	zeros := make([]float64, s.cfg.Dim)
	timer := time.NewTimer(time.Hour)
	timer.Stop()

	// Per-epoch state, rebuilt at each boundary. All three slices are
	// slot-indexed: members holds each slot's connection (nil once it died
	// or was replaced mid-epoch), submissions the round's GAR input and
	// owners the connection whose free list each borrowed buffer returns to.
	var (
		epochGAR    gar.GAR
		target      int
		members     []*workerConn
		submissions = make([][]float64, 0, plan.members.MaxWorkers)
		owners      = make([]*workerConn, 0, plan.members.MaxWorkers)
	)
	// enterEpoch lays out the epoch step runs under. At a boundary, or on a
	// table no snapshot restored, the slot table advances the view; a
	// resumed run's first round re-enters the snapshot's open epoch.
	enterEpoch := func(step int) (err error) {
		v := tracker.View()
		var admitted, evicted []int
		if step%plan.members.EpochRounds == 0 || v.N() == 0 {
			if v, admitted, evicted, err = table.Advance(); err != nil {
				return fmt.Errorf("cluster: round %d boundary: %w", step, err)
			}
		}
		for _, id := range evicted {
			s.logf("epoch %d: evicting worker %d", v.Epoch, id)
			reg.evict(id)
		}
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		for _, id := range admitted {
			wk := reg.current(id)
			// Welcome is the reply to Join: a connection that opened with
			// Hello expects params next and would fail on anything else.
			// nil: crashed between handshake and admission.
			if wk == nil || !wk.joined {
				continue
			}
			welcome := Welcome{Round: step, Epoch: v.Epoch, Weights: w, Velocity: velocity}
			if err := wk.c.sendWelcome(welcome, deadline); err != nil {
				s.logf("welcome to worker %d: %v", id, err)
				reg.disconnect(wk)
			}
		}
		if epochGAR, err = plan.newGAR(v.N(), v.F); err != nil {
			return fmt.Errorf("cluster: epoch %d GAR (n=%d f=%d): %w", v.Epoch, v.N(), v.F, err)
		}
		target = plan.target(v)
		members = members[:0]
		for _, id := range v.Members {
			members = append(members, reg.current(id))
		}
		submissions, owners = submissions[:v.N()], owners[:v.N()]
		s.logf("epoch %d: n=%d f=%d quorum=%d members=%v", v.Epoch, v.N(), v.F, target, v.Members)
		return nil
	}

	finish := func() {
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		for _, wk := range reg.all() {
			msg := Params{Step: s.cfg.Steps, Weights: w, Done: true}
			if err := wk.c.sendParams(msg, deadline); err != nil {
				s.logf("final broadcast to worker %d: %v", wk.id, err)
			}
		}
	}
	// fail ends a run that cannot continue: workers are released with the
	// current w — on the divergence path, the non-finite one — and the cause
	// is the error. A cancelled run fails with commit.Cancel's error, after
	// the completed prefix is flushed.
	fail := func(err error) (*ServerResult, error) {
		finish()
		return nil, s.commit.Stop(err)
	}

	// bcast holds the round's params frame. The frame cap was checked once,
	// by cfg.validate: a Dim-sized gradient frame fits MaxFrameBytes, and a
	// params frame is three bytes shorter.
	bcast := make([]byte, 0, frameHeaderSize+9+8*s.cfg.Dim)
	for step := start; step < s.cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return fail(s.commit.Cancel(step, err))
		}
		if step == start || step%plan.members.EpochRounds == 0 {
			if err := enterEpoch(step); err != nil {
				return fail(err)
			}
		}

		// One deadline governs the whole round: the broadcast sends and the
		// collect timer both derive from it, so a slow broadcast eats into
		// the collection budget instead of stretching the round to ~2×
		// RoundTimeout.
		deadline := time.Now().Add(s.cfg.RoundTimeout)
		// The params frame is the same for every member: encode it once and
		// let each conn write the shared bytes. sendFrame never hands the
		// buffer over — Write only reads it and is done when it returns — so
		// it is free again when this (serial, view-ordered) loop ends.
		bcast = appendParamsFrame(bcast[:0], Params{Step: step, Weights: w})
		for i, wk := range members {
			// A member whose conn was replaced mid-epoch stays in the frozen
			// view as a mute: its rejoin is only admitted at the boundary,
			// so the new conn gets no broadcast before then.
			if wk == nil || !reg.isCurrent(wk) {
				members[i] = nil
				continue
			}
			if err := wk.c.sendFrame(bcast, deadline); err != nil {
				s.logf("broadcast to worker %d: %v (treating as mute)", wk.id, err)
			}
		}

		timer.Reset(time.Until(deadline))
	collect:
		for table.Received() < target {
			select {
			case sub := <-inbox:
				slot, d := -1, membership.NotMember
				// Only an id's newest connection speaks for it: a frame from
				// one the worker already replaced, or the server evicted, is
				// nobody's.
				if reg.isCurrent(sub.src) {
					slot, d = table.Deliver(sub.src.id, sub.step, step)
				}
				if !d.Fills() {
					s.discarded++
					s.logf("discarding gradient (worker %d, step %d): %s", sub.src.id, sub.step, d)
					sub.src.free <- sub.grad
					continue
				}
				submissions[slot], owners[slot] = sub.grad, sub.src
			case <-timer.C:
				break collect
			case <-ctx.Done():
				// A cancelled round must not commit: no zero-padding, no
				// bookkeeping, no aggregation, no history record, no hooks.
				timer.Stop()
				return fail(s.commit.Cancel(step, ctx.Err()))
			}
		}
		timer.Stop()

		// Missing gradients become zero vectors (§2.1); the table decides
		// which slots those are and books them.
		for i := range submissions {
			if !table.Filled(i) {
				submissions[i] = zeros
			}
		}
		table.Commit()

		if err := gar.AggregateInto(epochGAR, agg, submissions); err != nil {
			return fail(fmt.Errorf("cluster: round %d aggregate: %w", step, err))
		}
		// Aggregation is done with the buffers: hand them back for reuse.
		for i, src := range owners {
			if src != nil {
				src.free <- submissions[i]
				owners[i] = nil
			}
			submissions[i] = nil
		}

		s.tally()
		if err := s.commit.Commit(step, agg); err != nil {
			return fail(err)
		}
	}

	finish()
	// The counters closed at the final commit: a frame the readers turn away
	// from here on is logged, not counted, so the result equals the final
	// snapshot's books. Quiesce the readers before returning all the same.
	shutdown()
	res := &ServerResult{Params: w, History: s.commit.History(), DiscardedSubmissions: s.discarded}
	res.AcceptedGradients, res.MissedGradients, res.CreditedGradients = table.Totals()
	if plan.epochBooks {
		res.Epochs = table.Epochs()
	}
	return res, nil
}
