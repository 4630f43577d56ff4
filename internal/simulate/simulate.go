// Package simulate is the in-process realization of the paper's parameter
// server model (Fig. 1): n workers — of which up to f are Byzantine — send
// gradients each synchronous step to a server that aggregates them with a
// GAR and performs the momentum-SGD update of Eq. 9.
//
// Honest workers follow §2.3 exactly: sample a batch, compute the gradient,
// clip it to G_max (Assumption 1) and inject DP noise (Eq. 7) before
// submission. Byzantine workers collude and all submit the same attack
// vector crafted from the honest submissions of the step; stateful attackers
// (attack.AdaptiveAttack) additionally observe each round's accepted
// aggregate. Workers sample one shared training set by default, or — with
// Config.WorkerTrain, built by internal/partition — worker-local non-IID
// shards.
//
// The simulation is deterministic in Config.Seed: every worker derives an
// independent randomness stream, so worker.StepAll can step the honest
// workers on several goroutines (when their b·d work is past the fan-out
// grain) without affecting the result.
//
// The honest step itself is worker.Pipeline.Step — the same code a cluster
// worker runs — into pipeline-owned buffers, so the steady-state step
// allocates nothing beyond what a configured Attack allocates to craft its
// vector.
//
//dpbyz:deterministic
package simulate

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dpbyz/internal/attack"
	"dpbyz/internal/checkpoint"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/round"
	"dpbyz/internal/worker"
)

// labelStraggler derives the straggler-set stream; it continues the
// worker package's label namespace.
const labelStraggler = worker.LabelAttack + 1

// Config fully describes one training run. The zero value is not usable;
// populate at least Model, Train, GAR and Steps.
type Config struct {
	// Model is the learning task.
	Model model.Model
	// Train is the training dataset the honest workers sample from.
	Train *data.Dataset
	// WorkerTrain, when non-nil, gives worker i its own training dataset
	// (heterogeneous/non-IID data, built by internal/partition): it must hold
	// exactly GAR.N() non-nil datasets of Train's dimension, and worker i's
	// batches come from WorkerTrain[i] instead of the shared Train. Loss
	// metrics still average over the honest workers' own batches, so the
	// recorded loss is the heterogeneous population loss.
	WorkerTrain []*data.Dataset
	// Test is the held-out dataset for cross-accuracy; may be nil.
	Test *data.Dataset
	// GAR is the server's aggregation rule; its N() fixes the worker count
	// and F() the number of Byzantine workers.
	GAR gar.GAR
	// Attack is the Byzantine behaviour; nil means the F() Byzantine slots
	// behave honestly (the paper's unattacked baseline).
	Attack attack.Attack
	// Mechanism is the per-worker DP noise; nil disables privacy.
	Mechanism dp.Mechanism

	// Steps is the number of synchronous SGD steps (paper: 1000).
	Steps int
	// BatchSize is each worker's per-step sample size b.
	BatchSize int
	// LearningRate is the fixed step size γ (paper: 2). Ignored when
	// LRSchedule is set.
	LearningRate float64
	// LRSchedule, when non-nil, supplies the per-step learning rate γ_t
	// (0-based step). Theorem 1's γ_t = 1/(λ(1−sinα)·t) decay is available
	// as InverseTimeLR.
	LRSchedule func(step int) float64
	// Momentum is the server-side momentum coefficient applied to the
	// aggregated gradient.
	Momentum float64
	// WorkerMomentum is the worker-side momentum coefficient — the
	// "distributed momentum" technique of El-Mhamdi et al. (ICLR 2021, the
	// paper's ref [16]) used by the paper's experimental stack. It divides
	// the submissions' VN ratio by roughly √((1+μ)/(1−μ)) and is what lets
	// MDA withstand ALIE/FoE at b = 50 (Fig. 2). Use exactly one of
	// Momentum and WorkerMomentum. Its placement relative to clipping and
	// noise is controlled by MomentumPostNoise.
	WorkerMomentum float64
	// MomentumPostNoise applies worker momentum after clipping and noising
	// (theory-faithful DP) instead of before (the paper's experimental
	// pipeline); see worker.Config.MomentumPostNoise for the trade-off.
	MomentumPostNoise bool
	// ClipNorm is G_max; gradients are clipped to this L2 norm before noise
	// injection (paper: 1e-2). Zero disables clipping.
	ClipNorm float64

	// Every run's frames go through the cluster server's round machine: a
	// membership.Tracker over the cohort [0, GAR.N()) and the
	// membership.SlotTable that decides which frame fills which slot and
	// books the delivery ledger. The local cohort never churns
	// (MinWorkers = MaxWorkers = n) and never evicts. Without Epochs the run
	// is one epoch spanning every step, as on the cluster.
	//
	// Epochs, when non-nil, partitions the run into EpochRounds-round epochs
	// of that tracker: each boundary re-derives f_e = ⌊FRatio·n⌋ and
	// re-materializes the aggregation rule through NewGAR, and the per-epoch
	// books are the table's (Accepted_e + Missed_e == n×rounds_e). A
	// membership Spec runs bit-identically on this backend.
	Epochs *EpochConfig

	// Stragglers, when positive, models bounded-staleness quorum rounds:
	// each step a seed-derived uniform set of Stragglers workers misses the
	// quorum cut (the server fires at n − Stragglers submissions) and its
	// frame arrives one round late. That arrival model is all the simulator
	// decides: every frame is delivered to the slot table in the cluster's
	// inbox order, and the table zero-pads and books the straggler's slot as
	// missed and credits the late frame to the next round (default) or
	// discards it as stale under LateDiscard — the cluster server's
	// Quorum/LateCredit semantics, so quorum sweeps run bit-identically on
	// the local backend.
	Stragglers int
	// LateDiscard drops one-round-late frames instead of crediting them to
	// the following round (the "discard" staleness policy). Meaningful only
	// with Stragglers > 0.
	LateDiscard bool

	// Seed drives all randomness in the run.
	Seed uint64
	// InitParams optionally sets w_0; nil starts from the zero vector.
	InitParams []float64

	// AccuracyEvery measures test accuracy every k steps (paper: 50);
	// 0 disables accuracy tracking.
	AccuracyEvery int
	// VNRatioEvery records the empirical DP-adjusted VN ratio of the honest
	// submissions every k steps; 0 disables.
	VNRatioEvery int

	// StepHook, when non-nil, is invoked after every completed step with the
	// step's metric record and a read-only view of the current parameter
	// vector (valid only for the duration of the call). A non-nil error
	// aborts the run. The nil check is the only cost on the hot path, so
	// runs without a hook keep the zero-allocation steady state.
	StepHook func(rec metrics.StepRecord, params []float64) error

	// SnapshotEvery, when positive together with SnapshotFunc, captures a
	// resumable checkpoint.RunState every k completed steps (and after the
	// final step). Snapshots happen at step boundaries and copy all mutable
	// state, so they are safe to persist while the run continues.
	SnapshotEvery int
	// SnapshotFunc receives each periodic snapshot; a non-nil error aborts
	// the run.
	SnapshotFunc func(*checkpoint.RunState) error

	// Resume, when non-nil, continues a run from a mid-run snapshot written
	// by SnapshotFunc: training starts at Resume.Step with the captured
	// parameters, momentum buffers, randomness stream positions and epoch
	// books, and the trajectory and the ledger from there are the
	// uninterrupted run's, bit for bit.
	// The rest of the Config must describe the same scenario the snapshot
	// was taken from. The privacy spend needs no state of its own: the
	// spec.Spec.Privacy ledger reads it from the absolute step a run ends
	// at, so a resumed run reports the uninterrupted run's spend.
	Resume *checkpoint.RunState
}

// EpochConfig is the cluster's epoched membership (cluster.MembershipConfig)
// for a fixed cohort of GAR.N() workers.
type EpochConfig struct {
	// EpochRounds is the boundary spacing in rounds; every epoch boundary
	// re-derives f and re-materializes the aggregation rule.
	EpochRounds int
	// FRatio derives each epoch's Byzantine allowance f_e = ⌊FRatio·n⌋. It
	// must be consistent with the configured GAR: ⌊FRatio·N⌋ == GAR.F().
	FRatio float64
	// NewGAR materializes the epoch's aggregation rule for (n, f). It must
	// be deterministic — the same (n, f) must yield an equivalent rule — or
	// resumed runs lose bit-identity.
	NewGAR func(n, f int) (gar.GAR, error)
}

// Result bundles the outcome of a run.
type Result struct {
	// Params is the final parameter vector w_T.
	Params []float64
	// History holds the per-step metrics.
	History *metrics.History
	// Accepted, Missed, Discarded and Credited are the delivery accounting
	// of the run, matching the cluster server's books: Accepted + Missed ==
	// n × steps exactly, Credited ⊆ Accepted counts one-round-late frames
	// credited under the staleness policy, and Discarded counts frames
	// dropped as duplicates or under LateDiscard. In full synchrony
	// (Stragglers == 0) every submission is accepted.
	Accepted  int
	Missed    int
	Discarded int
	Credited  int
	// Epochs holds the per-epoch membership ledgers (epoched runs only);
	// membership.BalanceEpochs(Epochs) holds on every completed run.
	Epochs []membership.EpochStat
}

// Validation errors.
var (
	ErrNilModel   = errors.New("simulate: nil model")
	ErrNilDataset = errors.New("simulate: nil training dataset")
	ErrNilGAR     = errors.New("simulate: nil aggregation rule")
	// ErrDiverged is round.ErrDiverged, the one divergence sentinel both
	// backends wrap.
	ErrDiverged = round.ErrDiverged
)

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	if c.Model == nil {
		return ErrNilModel
	}
	if c.Train == nil {
		return ErrNilDataset
	}
	if c.GAR == nil {
		return ErrNilGAR
	}
	if c.Steps <= 0 {
		return fmt.Errorf("simulate: non-positive step count %d", c.Steps)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("simulate: non-positive batch size %d", c.BatchSize)
	}
	if c.LearningRate <= 0 && c.LRSchedule == nil {
		return fmt.Errorf("simulate: non-positive learning rate %v", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("simulate: momentum %v outside [0, 1)", c.Momentum)
	}
	if c.WorkerMomentum < 0 || c.WorkerMomentum >= 1 {
		return fmt.Errorf("simulate: worker momentum %v outside [0, 1)", c.WorkerMomentum)
	}
	if c.Momentum > 0 && c.WorkerMomentum > 0 {
		return errors.New("simulate: use either server or worker momentum, not both")
	}
	if c.ClipNorm < 0 {
		return fmt.Errorf("simulate: negative clip norm %v", c.ClipNorm)
	}
	if c.Model.Features() != c.Train.Dim() {
		return fmt.Errorf("simulate: model expects %d features, data has %d",
			c.Model.Features(), c.Train.Dim())
	}
	if c.Test != nil && c.Test.Dim() != c.Train.Dim() {
		return fmt.Errorf("simulate: test dim %d != train dim %d",
			c.Test.Dim(), c.Train.Dim())
	}
	if c.WorkerTrain != nil {
		if len(c.WorkerTrain) != c.GAR.N() {
			return fmt.Errorf("simulate: %d worker datasets for %d workers",
				len(c.WorkerTrain), c.GAR.N())
		}
		for i, ds := range c.WorkerTrain {
			if ds == nil || ds.Len() == 0 {
				return fmt.Errorf("simulate: worker %d has an empty dataset", i)
			}
			if ds.Dim() != c.Train.Dim() {
				return fmt.Errorf("simulate: worker %d dataset dim %d != train dim %d",
					i, ds.Dim(), c.Train.Dim())
			}
		}
	}
	if c.InitParams != nil && len(c.InitParams) != c.Model.Dim() {
		return fmt.Errorf("simulate: init params dim %d, want %d",
			len(c.InitParams), c.Model.Dim())
	}
	if c.Attack != nil && c.GAR.F() == 0 {
		return errors.New("simulate: attack configured but GAR tolerates f = 0")
	}
	if c.Stragglers < 0 || c.Stragglers >= c.GAR.N() {
		return fmt.Errorf("simulate: straggler count %d outside [0, n=%d)",
			c.Stragglers, c.GAR.N())
	}
	if e := c.Epochs; e != nil {
		if e.NewGAR == nil {
			return errors.New("simulate: epoched run needs a NewGAR factory")
		}
		mc := c.cohort()
		if err := mc.Validate(); err != nil {
			return fmt.Errorf("simulate: epochs: %w", err)
		}
		if f := mc.F(c.GAR.N()); f != c.GAR.F() {
			return fmt.Errorf("simulate: epoch f ratio %v derives f=%d at n=%d, but the GAR declares f=%d",
				e.FRatio, f, c.GAR.N(), c.GAR.F())
		}
	}
	return nil
}

// cohort is the local population: workers [0, n) that never churn, one
// epoch per EpochRounds or one spanning the run (the cluster's fixed-cohort
// shape), and an eviction streak past Steps. A straggler under LateDiscard
// can miss several rounds in a row, and a local cohort never evicts.
func (c *Config) cohort() membership.Config {
	mc := membership.Config{MinWorkers: c.GAR.N(), MaxWorkers: c.GAR.N(), EpochRounds: c.Steps, EvictAfter: c.Steps + 1}
	if e := c.Epochs; e != nil {
		mc.EpochRounds, mc.FRatio = e.EpochRounds, e.FRatio
	}
	return mc
}

// runner is one training run's full mutable state; Run drives it step by
// step. Splitting construction from stepping lets tests and benchmarks
// measure the steady-state step in isolation.
type runner struct {
	cfg         Config
	n, f        int
	computeFrom int
	// commit owns w, the server velocity and the history (history is its
	// History, kept here for the Result).
	commit      *round.Committer
	history     *metrics.History
	workers     []*worker.Pipeline
	adv         worker.Adversary
	agg         []float64
	submissions [][]float64
	honest      [][]float64
	predictor   model.Predictor
	// fresh[i] is worker i's own submission of the step — the crafted
	// vector for a Byzantine worker — kept apart from submissions[i], which
	// delivery may repoint; honest is the fresh[computeFrom:] view.
	fresh [][]float64

	// tracker and table are the round machine every frame goes through;
	// the table keeps the ledger, and discarded counts the frames it turned
	// away, as the cluster server counts them. rule is the aggregation rule
	// the steps use — cfg.GAR, or the current epoch's re-materialized rule.
	tracker   *membership.Tracker
	table     *membership.SlotTable
	discarded int
	rule      gar.GAR

	// The arrival model (allocated only when cfg.Stragglers > 0).
	// stale[i] buffers worker i's in-flight frame, hasPending marks it
	// live, and zeros pads missed slots.
	stragglerRng *randx.Stream
	stragglerIdx []int
	isStraggler  []bool
	stale        [][]float64
	hasPending   []bool
	zeros        []float64
}

// newRunner validates cfg and allocates every buffer the run will touch, so
// the step loop itself runs allocation-free.
func newRunner(cfg Config) (*runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Model.Dim()
	n := cfg.GAR.N()
	root := randx.New(cfg.Seed)

	r := &runner{
		cfg:         cfg,
		n:           n,
		f:           cfg.GAR.F(),
		workers:     make([]*worker.Pipeline, n),
		adv:         worker.NewAdversary(cfg.Attack, root),
		agg:         make([]float64, d),
		submissions: make([][]float64, n),
		fresh:       make([][]float64, n),
	}
	var err error
	wcfg := worker.Config{
		Model: cfg.Model, Train: cfg.Train, BatchSize: cfg.BatchSize,
		ClipNorm: cfg.ClipNorm, Mechanism: cfg.Mechanism,
		Momentum: cfg.WorkerMomentum, MomentumPostNoise: cfg.MomentumPostNoise,
	}
	for i := range r.workers {
		if cfg.WorkerTrain != nil {
			wcfg.Train = cfg.WorkerTrain[i]
		}
		if r.workers[i], err = worker.New(wcfg, root, i); err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
	}
	// The first f slots are the Byzantine workers; they also compute an
	// honest gradient when no attack is configured (the paper's unattacked
	// runs keep all n workers honest). A GAR-aware attack line-searches
	// against the server's own rule.
	if cfg.Attack != nil {
		r.computeFrom = r.f
	}
	r.adv.SetGAR(cfg.GAR)
	r.honest = r.fresh[r.computeFrom:]
	r.predictor, _ = cfg.Model.(model.Predictor)
	r.rule = cfg.GAR
	if r.tracker, err = membership.NewTracker(cfg.cohort()); err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	for id := 0; id < n; id++ {
		if err := r.tracker.Handshake(id); err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
	}
	r.table = membership.NewSlotTable(r.tracker, !cfg.LateDiscard)
	if cfg.Stragglers > 0 {
		r.stragglerRng = root.Derive(labelStraggler)
		r.stragglerIdx = make([]int, cfg.Stragglers)
		r.isStraggler = make([]bool, n)
		r.stale = make([][]float64, n)
		for i := range r.stale {
			r.stale[i] = make([]float64, d)
		}
		r.hasPending = make([]bool, n)
		r.zeros = make([]float64, d)
	}
	rate := cfg.LRSchedule
	if rate == nil {
		rate = ConstantLR(cfg.LearningRate)
	}
	if r.commit, err = round.New(round.Config{
		Name: "simulate", Unit: "step", Dim: d, Steps: cfg.Steps,
		Momentum: cfg.Momentum, Rate: rate, InitParams: cfg.InitParams,
		Resume: cfg.Resume, Measure: r.measure, Hook: cfg.StepHook,
		SnapshotEvery: cfg.SnapshotEvery, SnapshotFunc: cfg.SnapshotFunc,
		Extend: r.snapshot, Table: r.table,
	}); err != nil {
		return nil, err
	}
	r.history = r.commit.History()
	if cfg.Resume != nil {
		if err := r.restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	// Lay out the epoch the first step runs under.
	if start := r.commit.Start(); start < cfg.Steps {
		if err := r.enterEpoch(start); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// snapshot adds the simulator's own mutable state — workers, the attack and
// the arrival model — to the server half and the books the Committer has
// filled in. Every buffer is copied, so the snapshot stays valid while the
// run continues.
func (r *runner) snapshot(st *checkpoint.RunState) {
	st.Workers = make([]checkpoint.WorkerRunState, len(r.workers))
	r.adv.Snapshot(st)
	for i, wk := range r.workers {
		ws := wk.State()
		if r.cfg.Stragglers > 0 && r.hasPending[i] {
			ws.Stale = append([]float64(nil), r.stale[i]...)
		}
		st.Workers[i] = ws
	}
	if r.cfg.Stragglers > 0 {
		_, _, credited := r.table.Totals()
		st.Quorum = &checkpoint.QuorumRunState{StragglerRng: r.stragglerRng.State(), Discarded: r.discarded, Credited: credited}
	}
}

// restore rewinds the runner's own state to a snapshot taken by snapshot,
// after the Committer restored the server half and the books. The config
// must describe the same scenario; structural mismatches are rejected.
func (r *runner) restore(st *checkpoint.RunState) error {
	if len(st.Workers) != len(r.workers) {
		return fmt.Errorf("simulate: resume has %d workers, config has %d",
			len(st.Workers), len(r.workers))
	}
	if err := r.adv.Restore(st); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	for i, ws := range st.Workers {
		if err := r.workers[i].SetState(ws); err != nil {
			return fmt.Errorf("simulate: resume worker %d: %w", i, err)
		}
		if ws.Stale != nil {
			if r.cfg.Stragglers == 0 {
				return fmt.Errorf("simulate: resume worker %d has an in-flight frame but staleness is disabled", i)
			}
			copy(r.stale[i], ws.Stale)
			r.hasPending[i] = true
		}
	}
	if q := st.Quorum; q != nil {
		if r.cfg.Stragglers == 0 {
			return errors.New("simulate: resume carries quorum state but staleness is disabled")
		}
		r.stragglerRng.SetState(q.StragglerRng)
		r.discarded = q.Discarded
	} else if r.cfg.Stragglers > 0 && st.Step > 0 {
		return errors.New("simulate: staleness configured but the snapshot carries no quorum state")
	}
	return nil
}

// deliver hands the step's frames to the slot table in the cluster's inbox
// order — a worker's one-round-late frame ahead of its fresh one — zero-pads
// (§2.1) the slots no frame filled and commits the round. The table decides
// every frame: a late frame is credited, or stale under LateDiscard; a fresh
// one is accepted, or a duplicate behind a credited frame; a straggler's
// fresh frame is still in flight. The local view is [0, n) in order, so
// worker i owns slot i, which already holds its fresh frame.
//
//dpbyz:hotpath
func (r *runner) deliver(step int) {
	late := r.cfg.Stragglers > 0
	if late {
		r.stragglerRng.Sample(r.stragglerIdx, r.n)
		clear(r.isStraggler)
		for _, i := range r.stragglerIdx {
			r.isStraggler[i] = true
		}
	}
	for i := 0; i < r.n; i++ {
		if late && r.hasPending[i] {
			if _, d := r.table.Deliver(i, step-1, step); d.Fills() {
				r.submissions[i] = r.stale[i]
			} else {
				r.discarded++
			}
		}
		if late && r.isStraggler[i] {
			continue
		}
		if _, d := r.table.Deliver(i, step, step); !d.Fills() {
			r.discarded++
		}
	}
	for i := range r.submissions {
		if !r.table.Filled(i) {
			r.submissions[i] = r.zeros
		}
	}
	r.table.Commit()
}

// stashStragglers records each straggler's frame as in flight for the next
// round. It runs after aggregation, when the submission buffers are free to
// copy from.
//
//dpbyz:hotpath
func (r *runner) stashStragglers() {
	for i := 0; i < r.n; i++ {
		if !r.isStraggler[i] {
			r.hasPending[i] = false
			continue
		}
		copy(r.stale[i], r.fresh[i])
		r.hasPending[i] = true
	}
}

// step advances the run by one synchronous SGD round.
//
//dpbyz:hotpath
func (r *runner) step(step int) error {
	cfg := &r.cfg
	w := r.commit.Params()

	worker.StepAll(r.honest, r.workers[r.computeFrom:], w)

	// Byzantine submissions: every Byzantine worker sends the same crafted
	// vector, per the collusion model of §5.1.
	if cfg.Attack != nil {
		crafted, err := r.adv.Craft(r.honest)
		if err != nil {
			return fmt.Errorf("simulate: step %d attack: %w", step, err)
		}
		for i := 0; i < r.f; i++ {
			r.fresh[i] = crafted
		}
	}
	copy(r.submissions, r.fresh)
	r.deliver(step)

	if err := gar.AggregateInto(r.rule, r.agg, r.submissions); err != nil {
		return fmt.Errorf("simulate: step %d aggregate: %w", step, err)
	}
	if cfg.Stragglers > 0 {
		r.stashStragglers()
	}
	// A stateful attack observes the completed round's accepted aggregate.
	r.adv.Observe(step, r.agg, r.honest)

	return r.commit.Commit(step, r.agg)
}

// measure is the simulator's step record: the loss at the updated w
// averaged over the honest workers' last-sampled batches — the paper's
// training-loss metric (§5.1 item 2) — plus test accuracy and the VN ratio
// on their cadences.
//
//dpbyz:hotpath
func (r *runner) measure(step int, w, _ []float64) metrics.StepRecord {
	cfg := &r.cfg
	rec := metrics.StepRecord{Step: step, Loss: math.NaN(), Accuracy: math.NaN(), VNRatio: math.NaN()}
	if honest := r.workers[r.computeFrom:]; len(honest) > 0 {
		rec.Loss = 0
		for _, wk := range honest {
			rec.Loss += cfg.Model.Loss(w, wk.Batch())
		}
		rec.Loss /= float64(len(honest))
	}
	if cfg.AccuracyEvery > 0 && r.predictor != nil && cfg.Test != nil &&
		(step%cfg.AccuracyEvery == 0 || step == cfg.Steps-1) {
		rec.Accuracy = model.Accuracy(r.predictor, w, cfg.Test)
	}
	if cfg.VNRatioEvery > 0 && step%cfg.VNRatioEvery == 0 {
		if ratio, err := gar.EmpiricalVNRatio(r.honest); err == nil {
			rec.VNRatio = ratio
		}
	}
	return rec
}

// enterEpoch lays out the epoch step runs under: at a boundary, or on a
// table no snapshot restored, the slot table advances the tracker to the
// next view; otherwise (a mid-epoch resume) the view the table re-entered
// stands. An epoched run then re-materializes its rule for the view's
// (n, f). This runs outside the hot step loop, so the factory may allocate
// freely.
func (r *runner) enterEpoch(step int) error {
	if step%r.tracker.Config().EpochRounds == 0 || r.tracker.View().N() == 0 {
		if _, _, _, err := r.table.Advance(); err != nil {
			return fmt.Errorf("simulate: step %d boundary: %w", step, err)
		}
	}
	ec := r.cfg.Epochs
	if ec == nil {
		return nil
	}
	v := r.tracker.View()
	g, err := ec.NewGAR(v.N(), v.F)
	if err != nil {
		return fmt.Errorf("simulate: epoch %d gar: %w", v.Epoch, err)
	}
	if g.N() != v.N() || g.F() != v.F {
		return fmt.Errorf("simulate: epoch %d factory built a (%d, %d) rule, want (%d, %d)",
			v.Epoch, g.N(), g.F(), v.N(), v.F)
	}
	r.rule = g
	// A GAR-aware attack line-searches against the server's live rule.
	r.adv.SetGAR(g)
	return nil
}

// Run executes the configured training and returns the final parameters and
// metric history. The context cancels long runs between steps. An error
// from inside the step loop is a *round.Stopped counting the committed
// steps.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	start, rounds := r.commit.Start(), r.tracker.Config().EpochRounds
	for step := start; step < cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			// A graceful shutdown (SIGINT on a cmd, fleet Stop) flushes the
			// completed prefix.
			return nil, r.commit.Stop(r.commit.Cancel(step, err))
		}
		// newRunner laid out the start's epoch.
		if step > start && step%rounds == 0 {
			if err := r.enterEpoch(step); err != nil {
				return nil, r.commit.Stop(err)
			}
		}
		if err := r.step(step); err != nil {
			return nil, r.commit.Stop(err)
		}
	}
	res := &Result{Params: r.commit.Params(), History: r.history, Discarded: r.discarded}
	res.Accepted, res.Missed, res.Credited = r.table.Totals()
	if cfg.Epochs != nil {
		res.Epochs = r.table.Epochs()
	}
	return res, nil
}

// InverseTimeLR returns the Theorem 1 learning-rate schedule
// γ_t = scale/(t+1) (the paper uses scale = 1/(λ(1−sinα))).
func InverseTimeLR(scale float64) func(step int) float64 {
	return func(step int) float64 { return scale / float64(step+1) }
}

// ConstantLR returns a constant schedule, for call sites that always pass a
// schedule function.
func ConstantLR(rate float64) func(step int) float64 {
	return func(int) float64 { return rate }
}
