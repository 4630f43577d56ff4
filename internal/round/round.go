// Package round is the server half of one synchronous SGD round, written
// once for both round loops: the simulator's (internal/simulate) and the
// cluster server's (internal/cluster). After a loop has aggregated the
// round's submissions it hands the aggregate to Committer.Commit, which
// applies the momentum update of Eq. 9, v ← μ·v + G, w ← w − γ_t·v, checks
// that w stayed finite, records the round, calls the step hook and takes the
// periodic snapshot. The Committer also owns the server half of a
// checkpoint.RunState — step, parameters, velocity, and the slot table's
// epoch books, which are the run's delivery ledger — and the flush of the
// completed prefix when a run is cancelled.
//
//dpbyz:deterministic
package round

import (
	"errors"
	"fmt"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/membership"
	"dpbyz/internal/metrics"
	"dpbyz/internal/vecmath"
)

// ErrDiverged reports that the parameters left the finite range. Both
// backends wrap this one value, so errors.Is tells divergence apart from
// every other failure whichever loop ran.
var ErrDiverged = errors.New("parameters diverged to non-finite values")

// Stopped is the error of a run that ended inside its step loop, before its
// last step. Committed counts the steps it committed, a resumed run's prefix
// included; the round in flight may already have released its submissions.
// Err is the cause, formatted as the loop reported it.
type Stopped struct {
	Committed int
	Err       error
}

func (e *Stopped) Error() string { return e.Err.Error() }

func (e *Stopped) Unwrap() error { return e.Err }

// Config binds a Committer to one run.
type Config struct {
	// Name prefixes every error ("simulate", "cluster") and Unit names one
	// iteration in them ("step", "round").
	Name, Unit string
	// Dim is the model dimension d and Steps the run's total step count.
	Dim, Steps int
	// Momentum is the server-side coefficient μ of Eq. 9.
	Momentum float64
	// Rate is the learning rate γ_t of 0-based step t; a non-positive rate
	// aborts the run.
	Rate func(step int) float64
	// InitParams optionally sets w_0 (nil starts from the zero vector).
	InitParams []float64
	// Resume, when non-nil, restores the run's position from a snapshot (see
	// Restore); it wins over InitParams.
	Resume *checkpoint.RunState
	// Table, when non-nil, is the run's slot table: every snapshot carries
	// its books, and Restore re-enters the snapshot's open epoch on it. It
	// must not have advanced when New is called.
	Table *membership.SlotTable
	// Measure builds step's record from the updated parameters w and the
	// aggregate agg. It is called once per round on the hot path.
	Measure func(step int, w, agg []float64) metrics.StepRecord
	// Hook, when non-nil, receives every record and a read-only view of w;
	// a non-nil error aborts the run.
	Hook func(rec metrics.StepRecord, params []float64) error
	// SnapshotEvery, when positive together with SnapshotFunc, saves a
	// snapshot every k completed steps and after the final one.
	SnapshotEvery int
	SnapshotFunc  func(*checkpoint.RunState) error
	// Extend, when non-nil, adds the caller's own state (workers, streams,
	// ledgers) to every snapshot after the server half is filled in.
	Extend func(*checkpoint.RunState)
}

// Committer is the parameter server's state between rounds — w, the
// momentum buffer and the run's history — and the one commit step that
// advances it.
type Committer struct {
	cfg         Config // SnapshotFunc is nil when snapshots are off
	start       int
	w, velocity []float64
	history     *metrics.History
}

// New allocates the server state of a run and, for a resumed run, restores
// it from cfg.Resume. The history is sized for the steps left to run.
func New(cfg Config) (*Committer, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotFunc = nil
	}
	c := &Committer{cfg: cfg, w: make([]float64, cfg.Dim), velocity: make([]float64, cfg.Dim)}
	copy(c.w, cfg.InitParams)
	if cfg.Resume != nil {
		if err := c.Restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	c.history = metrics.NewHistory(cfg.Steps - c.start)
	return c, nil
}

// Params is w. The slice is the live buffer: callers read it (to broadcast,
// to compute gradients) and never write it.
func (c *Committer) Params() []float64 { return c.w }

// Velocity is the live momentum buffer; read-only, like Params.
func (c *Committer) Velocity() []float64 { return c.velocity }

// History is the record of the steps this Committer has run.
func (c *Committer) History() *metrics.History { return c.history }

// Start is the first step to run: 0, or the step a resumed run restarts at.
func (c *Committer) Start() int { return c.start }

// Commit ends step with the aggregate agg: the Eq. 9 update, the finiteness
// check, the step record, the hook, then the snapshot if one is due. Errors
// from the hook and the snapshot are wrapped with the step; divergence wraps
// ErrDiverged.
//
//dpbyz:hotpath
func (c *Committer) Commit(step int, agg []float64) error {
	cfg := &c.cfg
	lr := cfg.Rate(step)
	if lr <= 0 {
		return fmt.Errorf("%s: %s %d: schedule returned non-positive rate %v", cfg.Name, cfg.Unit, step, lr)
	}
	for i := range c.velocity {
		c.velocity[i] = cfg.Momentum*c.velocity[i] + agg[i]
		c.w[i] -= lr * c.velocity[i]
	}
	if !vecmath.AllFinite(c.w) {
		return fmt.Errorf("%s: %s %d: %w", cfg.Name, cfg.Unit, step, ErrDiverged)
	}
	rec := cfg.Measure(step, c.w, agg)
	c.history.Append(rec)
	if cfg.Hook != nil {
		if err := cfg.Hook(rec, c.w); err != nil {
			return fmt.Errorf("%s: %s %d hook: %w", cfg.Name, cfg.Unit, step, err)
		}
	}
	if c.snapshotDue(step) {
		if err := cfg.SnapshotFunc(c.Snapshot(step + 1)); err != nil {
			return fmt.Errorf("%s: %s %d snapshot: %w", cfg.Name, cfg.Unit, step, err)
		}
	}
	return nil
}

// Stop wraps err, which ends the run inside its step loop, as a *Stopped
// that counts the steps committed so far.
func (c *Committer) Stop(err error) error {
	return &Stopped{Committed: c.start + c.history.Len(), Err: err}
}

// snapshotDue is the snapshot cadence: every k completed steps, and after
// the run's final step.
func (c *Committer) snapshotDue(step int) bool {
	return c.cfg.SnapshotFunc != nil && ((step+1)%c.cfg.SnapshotEvery == 0 || step == c.cfg.Steps-1)
}

// Cancel ends a run interrupted before step k, that is after k completed
// steps. It flushes a final snapshot of the completed prefix, so a graceful
// shutdown never loses resumable progress, and returns cause wrapped with
// the step. The flush is best-effort: the interruption is still the error.
// A failed flush wraps the flush error instead of cause, so callers that
// treat a clean interrupt as success still see a lost snapshot as the
// failure it is.
func (c *Committer) Cancel(k int, cause error) error {
	cfg := &c.cfg
	if cfg.SnapshotFunc != nil {
		if err := cfg.SnapshotFunc(c.Snapshot(k)); err != nil {
			return fmt.Errorf("%s: %s %d: %v (final snapshot: %w)", cfg.Name, cfg.Unit, k, cause, err)
		}
	}
	return fmt.Errorf("%s: %s %d: %w", cfg.Name, cfg.Unit, k, cause)
}

// Snapshot captures the run after k completed steps. Params, velocity and
// the books are copied (views are immutable and shared), so the snapshot
// stays valid while the run continues; Extend, if set, adds the caller's
// state.
func (c *Committer) Snapshot(k int) *checkpoint.RunState {
	st := &checkpoint.RunState{
		Version:  checkpoint.RunStateVersion,
		Step:     k,
		Params:   append([]float64(nil), c.w...),
		Velocity: append([]float64(nil), c.velocity...),
	}
	if c.cfg.Table != nil {
		if books, streaks := c.cfg.Table.Books(); books != nil {
			st.Membership = &checkpoint.MembershipRunState{Epochs: books, Streaks: streaks}
		}
	}
	if c.cfg.Extend != nil {
		c.cfg.Extend(st)
	}
	return st
}

// Restore rewinds the server state to a snapshot: the run restarts at
// st.Step with its parameters and velocity, and the slot table re-enters the
// snapshot's open epoch with its books, missed streaks and credited count
// (membership.SlotTable.Restore) — the one resume path of both round loops.
// A snapshot without books (written before they were kept, or at step 0)
// leaves the table fresh: the loop opens an epoch at st.Step and the ledger
// counts from there. A snapshot that fails its own validation, has another
// dimension, lies beyond the run's steps or carries books that do not fit
// the table is rejected. st.Step == Steps is a completed run, which has
// nothing left to run: resuming it returns the finished parameters.
func (c *Committer) Restore(st *checkpoint.RunState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if len(st.Params) != len(c.w) {
		return fmt.Errorf("%s: resume params dim %d, model dim %d", c.cfg.Name, len(st.Params), len(c.w))
	}
	if st.Step > c.cfg.Steps {
		return fmt.Errorf("%s: resume step %d beyond configured steps %d", c.cfg.Name, st.Step, c.cfg.Steps)
	}
	if m := st.Membership; c.cfg.Table != nil && m != nil && len(m.Epochs) > 0 {
		credited := 0
		if st.Quorum != nil {
			credited = st.Quorum.Credited
		}
		if err := c.cfg.Table.Restore(st.Step, m.Epochs, m.Streaks, credited); err != nil {
			return fmt.Errorf("%s: %w", c.cfg.Name, err)
		}
	}
	c.start = st.Step
	copy(c.w, st.Params)
	if st.Velocity != nil {
		copy(c.velocity, st.Velocity)
	}
	return nil
}
