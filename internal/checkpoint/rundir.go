package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Canonical file names inside one run directory of a fleet store. The fleet
// control plane owns the semantics; they live here so every layer that
// touches a run directory — the service, the CLI, tests, recovery tooling —
// agrees on the layout through one definition.
const (
	// RunSpecFile holds the run's serialized Spec.
	RunSpecFile = "spec.json"
	// RunMetaFile holds the service-side run metadata (status, scheduling).
	RunMetaFile = "meta.json"
	// RunSnapshotFile holds the resumable RunState (SaveRunState format:
	// compact JSON; spec.json and meta.json, which people read, are indented).
	RunSnapshotFile = "snapshot.json"
	// RunEventsFile holds the run's append-only JSONL event log.
	RunEventsFile = "events.jsonl"
)

// RunDir addresses one run's directory under a fleet store root. It is a
// pure path helper: nothing is touched until Ensure or a save call.
type RunDir struct {
	path string
}

// NewRunDir returns the directory for run id under root.
func NewRunDir(root, id string) RunDir {
	return RunDir{path: filepath.Join(root, id)}
}

// Path returns the directory path.
func (d RunDir) Path() string { return d.path }

// SpecPath returns the run's spec file path.
func (d RunDir) SpecPath() string { return filepath.Join(d.path, RunSpecFile) }

// MetaPath returns the run's metadata file path.
func (d RunDir) MetaPath() string { return filepath.Join(d.path, RunMetaFile) }

// SnapshotPath returns the run's resumable-snapshot path.
func (d RunDir) SnapshotPath() string { return filepath.Join(d.path, RunSnapshotFile) }

// EventsPath returns the run's event-log path.
func (d RunDir) EventsPath() string { return filepath.Join(d.path, RunEventsFile) }

// Ensure creates the directory (and the store root above it) if needed.
func (d RunDir) Ensure() error {
	if err := os.MkdirAll(d.path, 0o755); err != nil {
		return fmt.Errorf("checkpoint: create run dir %s: %w", d.path, err)
	}
	return nil
}

// LoadSnapshot reads the run's resumable snapshot, returning (nil, nil) when
// none was written yet — the caller's signal to start the run from scratch.
func (d RunDir) LoadSnapshot() (*RunState, error) {
	st, err := LoadRunState(d.SnapshotPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return st, err
}

// WriteFileAtomic writes data to path through a temporary file and a rename
// — the one write path of every file in a run directory, snapshots included:
// a crash mid-write never leaves a truncated file where a good one used to
// be, and a failed write leaves no temporary file behind.
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

// ListRunDirs returns the names of root's subdirectories in lexical order —
// for the fleet's zero-padded sequential IDs, that is submission order. A
// missing root lists as empty: a fresh store has no runs yet.
func ListRunDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s: %w", root, err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}
