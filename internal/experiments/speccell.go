package experiments

import (
	"context"

	runspec "dpbyz/internal/spec"
)

// SpecCellConfig runs one arbitrary serializable run spec as an experiment
// cell: the spec is repeated across seeds on the deterministic scheduler and
// aggregated exactly like a figure-grid cell, so any JSON spec file — the
// same one cmd/dpbyz-train or a cluster deployment consumes — becomes a
// mean ± std experiment with no translation layer.
type SpecCellConfig struct {
	// Run is the spec to execute.
	Run runspec.Spec
	// Seeds repeats the run with seeds 1..Seeds (0 means a single run with
	// the spec's own seed).
	Seeds int
	// Sched configures the seed scheduler (same determinism contract as
	// RunFigure).
	Sched Sched
}

// RunSpecCell executes the spec across the configured seeds on the local
// backend and aggregates the curves.
func RunSpecCell(ctx context.Context, cfg SpecCellConfig) (*CellResult, error) {
	label := cfg.Run.Name
	if label == "" {
		label = "spec"
	}
	cond := Condition{Label: label, DP: cfg.Run.Mechanism != nil}
	if cfg.Run.Attack != nil {
		cond.AttackName = cfg.Run.Attack.Name
	}
	g := grid{
		id:    "spec",
		sched: cfg.Sched,
		seeds: max(cfg.Seeds, 1),
		conds: []Condition{cond},
		spec: func(_, seed int) runspec.Spec {
			s := cfg.Run
			if cfg.Seeds > 0 {
				s.Seed = uint64(seed)
			}
			return s
		},
	}
	cells, _, err := g.run(ctx)
	if err != nil {
		return nil, err
	}
	return &cells[0], nil
}
