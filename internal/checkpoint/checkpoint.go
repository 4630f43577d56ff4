// Package checkpoint persists trained models and run metadata as JSON, so
// a model trained by cmd/dpbyz-train or the networked server can be saved,
// inspected and reloaded for evaluation — the operational piece a
// downstream user of the library needs around the training loop.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// FormatVersion identifies the checkpoint schema; bump on breaking change.
const FormatVersion = 1

// Checkpoint is a serialized model plus the context needed to interpret it.
type Checkpoint struct {
	// Version is the schema version (FormatVersion at write time).
	Version int `json:"version"`
	// Model is the model registry name (e.g. "logistic-mse").
	Model string `json:"model"`
	// Features is the input dimension the model expects.
	Features int `json:"features"`
	// Hidden is the MLP hidden width (0 for linear models).
	Hidden int `json:"hidden,omitempty"`
	// Params is the flat parameter vector w.
	Params []float64 `json:"params"`
	// StepsTrained records how many SGD steps produced Params.
	StepsTrained int `json:"stepsTrained,omitempty"`
	// Seed is the run seed, for provenance.
	Seed uint64 `json:"seed,omitempty"`
	// Note is free-form provenance text (GAR, attack, budget, ...).
	Note string `json:"note,omitempty"`
}

// Validation errors.
var (
	ErrBadVersion = errors.New("checkpoint: unsupported version")
	ErrEmpty      = errors.New("checkpoint: empty parameter vector")
)

// Validate checks structural invariants after decode.
func (c *Checkpoint) Validate() error {
	if c.Version != FormatVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, c.Version)
	}
	if len(c.Params) == 0 {
		return ErrEmpty
	}
	if c.Model == "" {
		return errors.New("checkpoint: missing model name")
	}
	if c.Features <= 0 {
		return fmt.Errorf("checkpoint: non-positive features %d", c.Features)
	}
	return nil
}

// Write encodes the checkpoint as indented JSON.
func Write(w io.Writer, c *Checkpoint) error {
	c.Version = FormatVersion
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Read decodes and validates a checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Save writes the checkpoint to path, creating or truncating the file.
func Save(path string, c *Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	if err := Write(f, c); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", path, err)
	}
	return nil
}

// Load reads a checkpoint from path. It is the reload half of the model
// file dpbyz-train -save writes, an evaluator's entry point that in this
// module only the round-trip tests call.
//
//dpbyz:testseam
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(f)
}
