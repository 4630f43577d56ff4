package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"dpbyz/internal/attack"
	"dpbyz/internal/membership"
	"dpbyz/internal/randx"
)

// RunStateVersion identifies the mid-run snapshot schema; bump on breaking
// change. Version 1 stream states carried the Box-Muller spare cache
// (spare/hasSpare), which no sampler reads any more: a v1 snapshot is
// rejected by ErrBadRunStateVersion rather than resumed with the field
// dropped.
const RunStateVersion = 2

// WorkerRunState is one simulated worker's resumable state: its two
// randomness streams and (when worker momentum is enabled) the momentum
// buffer. Restoring all three makes the worker's future submissions
// bit-identical to the uninterrupted run's.
type WorkerRunState struct {
	// Batch is the batch-sampling stream position.
	Batch randx.StreamState `json:"batch"`
	// Noise is the DP-noise stream position.
	Noise randx.StreamState `json:"noise"`
	// Momentum is the worker-side momentum buffer (absent when disabled).
	Momentum []float64 `json:"momentum,omitempty"`
	// Stale is the worker's in-flight frame under the bounded-staleness
	// model: a submission that missed its round's quorum and arrives one
	// round late (absent when the worker has none in flight).
	Stale []float64 `json:"stale,omitempty"`
}

// QuorumRunState is the bounded-staleness round state of a local-backend
// run: the straggler-draw stream position and the delivery counters, so a
// resumed run's straggler sets and accounting are bit-identical to the
// uninterrupted run's.
type QuorumRunState struct {
	// StragglerRng is the straggler-set sampling stream position.
	StragglerRng randx.StreamState `json:"stragglerRng"`
	// Accepted/Missed/Discarded/Credited carry the delivery accounting up
	// to the snapshot step (Accepted + Missed == n × Step).
	Accepted  int `json:"accepted"`
	Missed    int `json:"missed"`
	Discarded int `json:"discarded"`
	Credited  int `json:"credited"`
}

// MembershipRunState is the epoched-membership position of a run: the
// current epoch's frozen view and every epoch's ledger so far. Restoring
// it re-enters the interrupted epoch with the same view, the same
// re-derived f, and books that still balance Accepted_e + Missed_e ==
// n_e × rounds_e across the interrupt.
type MembershipRunState struct {
	// Epoch is the current epoch index at the snapshot step.
	Epoch int `json:"epoch"`
	// View is the current epoch's frozen member view (sorted worker ids).
	View []int `json:"view"`
	// F is the current epoch's Byzantine allowance ⌊FRatio·n⌋.
	F int `json:"f"`
	// Epochs carries the per-epoch ledgers up to the snapshot, the
	// in-progress epoch last (its Rounds count only the completed rounds).
	Epochs []membership.EpochStat `json:"epochs,omitempty"`
}

// RunState is a mid-run training snapshot taken at a step boundary: enough
// state to resume the run and produce bit-identical results (for the
// in-process backend, whose execution is a pure function of this state) or
// to continue server-side training from the captured parameters (for the
// networked backend, whose workers hold their own state).
type RunState struct {
	// Version is the schema version (RunStateVersion at write time).
	Version int `json:"version"`
	// Backend records which backend wrote the snapshot ("local"/"cluster").
	Backend string `json:"backend,omitempty"`
	// Spec is the serialized run spec this snapshot belongs to, kept verbatim
	// so resume can verify it is continuing the same scenario.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Step is the number of completed steps; the resumed run starts here.
	Step int `json:"step"`
	// Params is the parameter vector w after Step steps.
	Params []float64 `json:"params"`
	// Velocity is the server-side momentum buffer.
	Velocity []float64 `json:"velocity,omitempty"`
	// AttackRng is the shared attack stream position (local backend only).
	AttackRng *randx.StreamState `json:"attackRng,omitempty"`
	// Attack is the adaptive attack's mutable state (absent for stateless
	// attacks and unattacked runs); restoring it makes the resumed attacker's
	// Craft sequence bit-identical to the uninterrupted run's.
	Attack *attack.State `json:"attack,omitempty"`
	// Workers holds the per-worker resumable state (local backend only; the
	// networked backend's workers own their state in their own processes).
	Workers []WorkerRunState `json:"workers,omitempty"`
	// Quorum holds the bounded-staleness round state (local backend only,
	// absent for fully synchronous runs).
	Quorum *QuorumRunState `json:"quorum,omitempty"`
	// Membership holds the epoched-membership position (absent for
	// fixed-cohort runs).
	Membership *MembershipRunState `json:"membership,omitempty"`
}

// Run-state validation errors.
var (
	ErrBadRunStateVersion = errors.New("checkpoint: unsupported run-state version")
	ErrBadStep            = errors.New("checkpoint: negative step")
)

// Validate checks structural invariants after decode.
func (s *RunState) Validate() error {
	if s.Version != RunStateVersion {
		return fmt.Errorf("%w: %d", ErrBadRunStateVersion, s.Version)
	}
	if s.Step < 0 {
		return fmt.Errorf("%w: %d", ErrBadStep, s.Step)
	}
	if len(s.Params) == 0 {
		return ErrEmpty
	}
	if s.Velocity != nil && len(s.Velocity) != len(s.Params) {
		return fmt.Errorf("checkpoint: velocity dim %d, params dim %d",
			len(s.Velocity), len(s.Params))
	}
	if s.Attack != nil && s.Attack.Drift != nil && len(s.Attack.Drift) != len(s.Params) {
		return fmt.Errorf("checkpoint: attack drift dim %d, params dim %d",
			len(s.Attack.Drift), len(s.Params))
	}
	for i, w := range s.Workers {
		if w.Momentum != nil && len(w.Momentum) != len(s.Params) {
			return fmt.Errorf("checkpoint: worker %d momentum dim %d, params dim %d",
				i, len(w.Momentum), len(s.Params))
		}
		if w.Stale != nil && len(w.Stale) != len(s.Params) {
			return fmt.Errorf("checkpoint: worker %d stale frame dim %d, params dim %d",
				i, len(w.Stale), len(s.Params))
		}
	}
	if q := s.Quorum; q != nil {
		if q.Accepted < 0 || q.Missed < 0 || q.Discarded < 0 || q.Credited < 0 {
			return errors.New("checkpoint: negative quorum accounting counter")
		}
	}
	if m := s.Membership; m != nil {
		if m.Epoch < 0 {
			return fmt.Errorf("checkpoint: negative epoch %d", m.Epoch)
		}
		for i, id := range m.View {
			if id < 0 {
				return fmt.Errorf("checkpoint: negative worker id in view")
			}
			if i > 0 && m.View[i-1] >= id {
				return errors.New("checkpoint: membership view not strictly sorted")
			}
		}
		// Every epoch's ledger — the partial current one included — must
		// balance: each completed round contributes exactly n_e slots.
		if err := membership.BalanceEpochs(m.Epochs); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// CheckSpec verifies the snapshot belongs to the given backend and spec
// document, so a resume cannot silently continue a different scenario.
// Either side may be absent (empty), in which case that check is skipped;
// spec documents are compared structurally (whitespace-insensitive).
func (s *RunState) CheckSpec(backend string, specJSON []byte) error {
	if s.Backend != "" && backend != "" && s.Backend != backend {
		return fmt.Errorf("checkpoint: snapshot written by backend %q, resuming on %q",
			s.Backend, backend)
	}
	if len(s.Spec) > 0 && len(specJSON) > 0 && !jsonEqual(s.Spec, specJSON) {
		return errors.New("checkpoint: snapshot belongs to a different spec")
	}
	return nil
}

// jsonEqual compares two JSON documents ignoring formatting.
func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		return false
	}
	if err := json.Compact(&cb, b); err != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// ReadRunState decodes and validates a snapshot.
func ReadRunState(r io.Reader) (*RunState, error) {
	var s RunState
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode run state: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SaveRunState validates the snapshot and writes it to path atomically
// (WriteFileAtomic: temporary file, then rename), so an interrupted save
// never leaves a truncated snapshot where a resumable one used to be. The
// file is compact JSON — one encode, one buffer, one write — because a
// snapshot is machine state rewritten every few steps of every run, and
// indenting one (a line per float of every vector) costs more than encoding
// it. ReadRunState does not care about whitespace, so an indented snapshot
// from an older store loads all the same.
func SaveRunState(path string, s *RunState) error {
	s.Version = RunStateVersion
	if err := s.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("checkpoint: encode run state: %w", err)
	}
	return WriteFileAtomic(path, b)
}

// LoadRunState reads a snapshot from path.
func LoadRunState(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadRunState(f)
}
