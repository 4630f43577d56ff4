package main

import (
	"context"
	"fmt"

	"dpbyz/internal/spec"
	"dpbyz/internal/vecmath"
)

// fig2Local runs the paper's figure shape on the in-process simulator.
// simulate, model, dp, randx and attack do almost all of the work; the GAR is
// a small-n subset search; nothing crosses a wire or touches the disk.
type fig2Local struct {
	seed    uint64
	tmpRoot string
}

func (w *fig2Local) name() string { return "fig2_local" }

func (w *fig2Local) threads() int { return 1 }

func (w *fig2Local) sizes() (full, warm, smoke size) {
	return size{12, 1000}, size{3, 1000}, size{1, 600}
}

func (w *fig2Local) setupOnce(ctx context.Context) error {
	_, err := (&spec.LocalBackend{}).Run(ctx, fig2Spec(w.seed, 0, 1))
	return err
}

func (w *fig2Local) prepare(context.Context) error { return nil }

// check has nothing to add: the local backend is the reference the cluster
// workloads are compared with.
func (w *fig2Local) check(context.Context, int) error { return nil }

func (w *fig2Local) batch(ctx context.Context, sz size, m *meter) (batchOut, error) {
	backend := &spec.LocalBackend{}
	return w.runBatch(sz, m, func(s spec.Spec) ([]float64, error) {
		res, err := backend.Run(ctx, s)
		if err != nil {
			return nil, err
		}
		return res.Params, nil
	})
}

// runBatch is the batch loop shared by the plain and the traced mode: run
// executes one Spec and returns its final parameters.
func (w *fig2Local) runBatch(sz size, m *meter, run func(spec.Spec) ([]float64, error)) (batchOut, error) {
	out := batchOut{rounds: sz.rounds(), attempted: sz.runs}
	h := newHash()
	if err := m.start(); err != nil {
		return out, err
	}
	for i := 0; i < sz.runs; i++ {
		params, err := run(fig2Spec(w.seed, i, sz.steps))
		if err != nil {
			return out, fmt.Errorf("run %d: %w", i, err)
		}
		if !vecmath.AllFinite(params) {
			out.failed++
		}
		hashParams(h, params)
	}
	if err := m.stop(); err != nil {
		return out, err
	}
	out.hash = h.Sum64()
	return out, nil
}
