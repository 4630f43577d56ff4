package fleet

import (
	"encoding/json"
	"fmt"
	"os"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/spec"
)

// MetaVersion is the run-metadata schema version; bump on breaking change.
const MetaVersion = 1

// Status is a run's position in the fleet lifecycle.
type Status string

// Run lifecycle states. A restarted service reschedules every run it finds
// in StatusPending or StatusRunning — "running" on disk after a crash means
// "was in flight when the process died", and the snapshot/event-log pair
// carries everything needed to resume it bit-identically.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final: a terminal run is never
// rescheduled and its event log never grows.
func (st Status) Terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCancelled
}

// Meta is the service-side record of one run: identity, scheduling
// directives, lifecycle state and — once terminal — the outcome summary.
// It lives in the run directory's meta.json, written atomically on every
// transition, so a restart reconstructs the whole fleet from the store.
type Meta struct {
	// Version is the metadata schema version (MetaVersion at write time).
	Version int `json:"version"`
	// ID is the run's identity: its directory name and its /runs URL path.
	ID spec.RunID `json:"id"`
	// Seq is the run's global submission sequence number; IDs are minted
	// from it, and a restarted service continues minting above the maximum
	// it finds.
	Seq uint64 `json:"seq"`
	// Priority orders queued runs: higher starts first, ties in Seq order.
	Priority int `json:"priority,omitempty"`
	// Backend names the executing backend: "local" or "cluster".
	Backend string `json:"backend"`
	// CheckpointEvery is the run's resumable-snapshot cadence in steps.
	CheckpointEvery int `json:"checkpointEvery"`
	// Status is the run's lifecycle state.
	Status Status `json:"status"`
	// Error holds the failure cause for StatusFailed runs.
	Error string `json:"error,omitempty"`
	// FinalLoss is the last recorded training loss (terminal runs only).
	FinalLoss *float64 `json:"finalLoss,omitempty"`
	// Cluster carries the run's delivery accounting and per-epoch ledgers
	// when the backend produced them (terminal runs only).
	Cluster *spec.ClusterStats `json:"cluster,omitempty"`
	// Privacy is the run's differential-privacy spend (terminal runs that
	// released a round only): the whole run's when done, the released
	// prefix's when cancelled or failed.
	Privacy spec.Privacy `json:"privacy,omitzero"`
}

// Store is the fleet's on-disk state: one directory per run under a root,
// each holding spec.json, meta.json, snapshot.json and events.jsonl (the
// checkpoint.RunDir layout). Every write is atomic, so a crash at any
// instant leaves each file either old or new, never torn.
type Store struct {
	root string
}

// NewStore addresses a store at root. Nothing is touched until a save.
func NewStore(root string) Store { return Store{root: root} }

// Dir returns the run's directory handle.
func (s Store) Dir(id spec.RunID) checkpoint.RunDir {
	return checkpoint.NewRunDir(s.root, string(id))
}

// SaveMeta atomically writes the run's metadata.
func (s Store) SaveMeta(m *Meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode meta %s: %w", m.ID, err)
	}
	return checkpoint.WriteFileAtomic(s.Dir(m.ID).MetaPath(), append(b, '\n'))
}

// LoadMeta reads and validates the run's metadata.
func (s Store) LoadMeta(id spec.RunID) (*Meta, error) {
	b, err := os.ReadFile(s.Dir(id).MetaPath())
	if err != nil {
		return nil, fmt.Errorf("fleet: read meta %s: %w", id, err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("fleet: decode meta %s: %w", id, err)
	}
	if m.Version != MetaVersion {
		return nil, fmt.Errorf("fleet: meta %s: unsupported version %d (want %d)", id, m.Version, MetaVersion)
	}
	if m.ID != id {
		return nil, fmt.Errorf("fleet: meta in %s names run %q", id, m.ID)
	}
	return &m, nil
}

// SaveSpec atomically writes the run's spec document.
func (s Store) SaveSpec(id spec.RunID, sp *spec.Spec) error {
	b, err := sp.JSON()
	if err != nil {
		return fmt.Errorf("fleet: encode spec %s: %w", id, err)
	}
	return checkpoint.WriteFileAtomic(s.Dir(id).SpecPath(), b)
}

// LoadSpec reads and validates the run's spec document.
func (s Store) LoadSpec(id spec.RunID) (*spec.Spec, error) {
	b, err := os.ReadFile(s.Dir(id).SpecPath())
	if err != nil {
		return nil, fmt.Errorf("fleet: read spec %s: %w", id, err)
	}
	sp, err := spec.Parse(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: decode spec %s: %w", id, err)
	}
	return sp, nil
}

// List returns the store's run IDs in lexical — which, for the fleet's
// zero-padded sequential IDs, is submission — order. Directories whose
// names are not valid run IDs are not the store's to manage and are skipped.
func (s Store) List() ([]spec.RunID, error) {
	names, err := checkpoint.ListRunDirs(s.root)
	if err != nil {
		return nil, err
	}
	ids := make([]spec.RunID, 0, len(names))
	for _, name := range names {
		id := spec.RunID(name)
		if id.Validate() != nil {
			continue
		}
		ids = append(ids, id)
	}
	return ids, nil
}
