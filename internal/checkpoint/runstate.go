// Package checkpoint persists resumable run snapshots: a RunState taken at
// a step boundary holds everything a backend needs to continue the run bit
// for bit, and the one taken after the final step is the trained model —
// its params beside the Spec and the backend that produced them. Snapshots
// are written atomically (WriteFileAtomic), so a crash mid-write never
// leaves a truncated file where a resumable one used to be.
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
// change. Version 3 made the epoch books (Membership) the run's only ledger
// and dropped the copies version 2 kept beside them — the quorum's accepted
// and missed totals and the membership's epoch, view and f — so a version-2
// reader refuses it by version. A version-2 snapshot still loads: the
// dropped fields are ignored, its books (when it has any) are restored as
// written, and one without books resumes counting the ledger from its step.
// Version 1 stream states carried the Box-Muller spare cache (spare /
// hasSpare), which no sampler reads any more: a v1 snapshot is rejected by
// ErrBadRunStateVersion rather than resumed with the field dropped.
const RunStateVersion = 3

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

// QuorumRunState holds the two run counters the epoch books do not hold
// and, on a local-backend run with stragglers, the straggler-draw stream
// position, so a resumed run's straggler sets and accounting continue the
// uninterrupted run's.
type QuorumRunState struct {
	// StragglerRng is the straggler-set sampling stream position.
	StragglerRng randx.StreamState `json:"stragglerRng"`
	// Discarded and Credited count the frames discarded and the accepted
	// frames credited a round late, up to the snapshot step.
	Discarded int `json:"discarded"`
	Credited  int `json:"credited"`
}

// MembershipRunState is the slot table's delivery ledger at the snapshot:
// every epoch's books, the open one last, and the missed streaks of the
// open epoch's members. Restoring it (round.Committer.Restore) re-enters
// the interrupted epoch with the same view and f, and the run's Accepted
// and Missed totals are the sums of the books.
type MembershipRunState struct {
	// Epochs carries the per-epoch ledgers up to the snapshot, the
	// in-progress epoch last (its Rounds count only the completed rounds).
	Epochs []membership.EpochStat `json:"epochs,omitempty"`
	// Streaks holds the consecutive missed rounds of each member of the last
	// epoch's view, in view order (absent in snapshots that predate it:
	// all zero).
	Streaks []int `json:"streaks,omitempty"`
}

// RunState is a mid-run training snapshot taken at a step boundary: enough
// state to resume the run and produce bit-identical results. The local
// backend's execution is a pure function of it. A cluster snapshot carries
// the server's half, the ledger and (from the in-process cluster backend)
// the adversary's half; its workers replay their own streams to the
// snapshot step, which is exact unless they keep worker momentum.
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
	// AttackRng is the colluding adversary's attack stream position, written
	// by the local backend and by the in-process cluster backend (absent
	// from a cross-process server's snapshots).
	AttackRng *randx.StreamState `json:"attackRng,omitempty"`
	// Attack is the adaptive attack's mutable state (absent for stateless
	// attacks and unattacked runs); restoring it makes the resumed attacker's
	// Craft sequence bit-identical to the uninterrupted run's. Written where
	// AttackRng is.
	Attack *attack.State `json:"attack,omitempty"`
	// Workers holds the per-worker resumable state (local backend only; a
	// cluster's workers replay their streams instead, and a cluster refuses
	// to resume a run with worker momentum).
	Workers []WorkerRunState `json:"workers,omitempty"`
	// Quorum holds the run counters: in every cluster snapshot, and in a
	// local one only under bounded staleness (absent for fully synchronous
	// local runs).
	Quorum *QuorumRunState `json:"quorum,omitempty"`
	// Membership holds the delivery ledger, on both backends and for fixed
	// cohorts too (one epoch); absent before the first committed round.
	Membership *MembershipRunState `json:"membership,omitempty"`
}

// Run-state errors, matchable with errors.Is.
var (
	ErrBadRunStateVersion = errors.New("checkpoint: unsupported run-state version")
	ErrBadStep            = errors.New("checkpoint: negative step")
	ErrEmpty              = errors.New("checkpoint: empty parameter vector")
	// ErrUndecodable reports a snapshot that is not a run-state document:
	// truncated, empty or not JSON.
	ErrUndecodable = errors.New("checkpoint: undecodable run state")
	// ErrSpecMismatch reports a snapshot written by another backend or for
	// another Spec than the run resuming it.
	ErrSpecMismatch = errors.New("checkpoint: snapshot belongs to another run")
)

// Validate checks structural invariants after decode.
func (s *RunState) Validate() error {
	if s.Version < 2 || s.Version > RunStateVersion {
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
	if q := s.Quorum; q != nil && (q.Discarded < 0 || q.Credited < 0) {
		return errors.New("checkpoint: negative quorum accounting counter")
	}
	if m := s.Membership; m != nil {
		// Every epoch's ledger — the partial current one included — must
		// balance: each completed round contributes exactly n_e slots. Whether
		// the views and streaks fit the run's population is the slot table's
		// check (membership.SlotTable.Restore).
		if err := membership.BalanceEpochs(m.Epochs); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// CheckSpec verifies the snapshot belongs to the given backend and spec
// document, so a resume cannot silently continue a different scenario; a
// mismatch wraps ErrSpecMismatch. Either side may be absent (empty), in
// which case that check is skipped; spec documents are compared
// structurally (whitespace-insensitive).
func (s *RunState) CheckSpec(backend string, specJSON []byte) error {
	if s.Backend != "" && backend != "" && s.Backend != backend {
		return fmt.Errorf("%w: written by backend %q, resuming on %q",
			ErrSpecMismatch, s.Backend, backend)
	}
	if len(s.Spec) > 0 && len(specJSON) > 0 && !jsonEqual(s.Spec, specJSON) {
		return fmt.Errorf("%w: written for a different spec", ErrSpecMismatch)
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
		return nil, fmt.Errorf("%w: %v", ErrUndecodable, err)
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

// WriteFileAtomic writes data to path through a temporary file and a rename
// — the one write path of every snapshot and of every file in a fleet run
// directory: a crash mid-write never leaves a truncated file where a good
// one used to be, and a failed write leaves no temporary file behind.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename %s: %w", path, err)
	}
	return nil
}

// LoadRunState reads a snapshot from path. A missing file's error matches
// fs.ErrNotExist.
func LoadRunState(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadRunState(f)
}
