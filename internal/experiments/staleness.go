package experiments

import (
	"context"
	"fmt"

	runspec "dpbyz/internal/spec"
)

// StalenessSweepSpec measures what bounded-staleness quorum rounds cost in
// convergence: it sweeps the per-round straggler count s — the server fires
// after n − f − s submissions, replacing the cut workers' gradients with
// zeros — for one or more aggregation rules under a fixed attack with DP
// noise on. s = 0 is the fully synchronous baseline in the same quorum code
// path, so the sweep isolates the staleness axis from everything else.
type StalenessSweepSpec struct {
	// Stragglers are the per-round straggler counts to sweep (default
	// {0, 1, 2, 3}; each must keep the quorum n − f − s ≥ 1).
	Stragglers []int
	// Late selects the late-frame policy: "credit" (default) folds a frame
	// that is exactly one round stale into the next round, "discard" drops
	// every late frame.
	Late string
	// GARNames are the rules to compare at each s (default {"mda"}).
	GARNames []string
	// BatchSize defaults to 50 (the Fig. 2 batch).
	BatchSize int
	// AttackName defaults to "alie".
	AttackName string
	// Epsilon is the per-step DP budget (default PaperEpsilon).
	Epsilon float64
	Scale   Scale
	// Sched configures the (gar, s, seed) cell scheduler; results are
	// bit-identical at every Workers setting.
	Sched Sched
}

// StalenessPoint is one (gar, s) sweep measurement aggregated over seeds.
// The delivery accounting is summed across seeds and satisfies
// Accepted + Missed == seeds × n × steps exactly.
type StalenessPoint struct {
	GAR          string
	Stragglers   int
	MinLossMean  float64
	FinalAccMean float64
	FinalAccStd  float64
	Accepted     int
	Missed       int
	Discarded    int
	Credited     int
}

// staleCellSpec builds the serializable Spec of one (gar, s, seed) cell: the
// Fig. 2 hyperparameters with the staleness axis riding on top, so any cell
// can be exported and replayed on any backend unchanged.
func staleCellSpec(sw StalenessSweepSpec, garName string, stragglers, seed int) runspec.Spec {
	fig := FigureSpec{ID: "stalesweep", BatchSize: sw.BatchSize, Epsilon: sw.Epsilon, Scale: sw.Scale}
	cond := Condition{Label: sw.AttackName + "+dp", AttackName: sw.AttackName, DP: true}
	s := CellSpec(fig, cond, seed)
	s.Name = fmt.Sprintf("stalesweep/%s/s=%d", garName, stragglers)
	s.GAR = runspec.GARSpec{Name: garName, N: PaperWorkers, F: PaperByzantine}
	s.Staleness = &runspec.StalenessSpec{Stragglers: stragglers, Late: sw.Late}
	return s
}

// RunStalenessSweep executes the s × GAR grid across the configured seeds on
// the deterministic cell scheduler. Per-seed datasets are built once and
// shared read-only across every (gar, s) condition. Results are
// BIT-IDENTICAL at every Sched.Workers setting.
func RunStalenessSweep(ctx context.Context, sw StalenessSweepSpec) ([]StalenessPoint, error) {
	if len(sw.Stragglers) == 0 {
		sw.Stragglers = []int{0, 1, 2, 3}
	}
	if sw.Late == "" {
		sw.Late = "credit"
	}
	if len(sw.GARNames) == 0 {
		sw.GARNames = []string{"mda"}
	}
	if sw.BatchSize == 0 {
		sw.BatchSize = 50
	}
	if sw.AttackName == "" {
		sw.AttackName = "alie"
	}
	if sw.Epsilon == 0 {
		sw.Epsilon = PaperEpsilon
	}
	for _, s := range sw.Stragglers {
		if q := PaperWorkers - PaperByzantine - s; s < 0 || q < 1 {
			return nil, fmt.Errorf("experiments: stalesweep s=%d leaves quorum %d (need >= 1)", s, q)
		}
	}
	g, err := phishingGrid("stalesweep", sw.Sched, sw.Scale, 0)
	if err != nil {
		return nil, err
	}
	out := make([]StalenessPoint, 0, len(sw.GARNames)*len(sw.Stragglers))
	for _, garName := range sw.GARNames {
		for _, s := range sw.Stragglers {
			out = append(out, StalenessPoint{GAR: garName, Stragglers: s})
			g.conds = append(g.conds, Condition{
				Label: fmt.Sprintf("%s s=%d", garName, s), AttackName: sw.AttackName, DP: true,
			})
		}
	}
	g.spec = func(ci, seed int) runspec.Spec {
		return staleCellSpec(sw, out[ci].GAR, out[ci].Stragglers, seed)
	}
	cells, runs, err := g.run(ctx)
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		p := &out[ci]
		p.MinLossMean = cell.MinLossMean
		p.FinalAccMean = cell.FinalAccMean
		p.FinalAccStd = cell.FinalAccStd
		for _, r := range runs[ci*g.seeds : (ci+1)*g.seeds] {
			p.Accepted += r.Cluster.Accepted
			p.Missed += r.Cluster.Missed
			p.Discarded += r.Cluster.Discarded
			p.Credited += r.Cluster.Credited
		}
	}
	return out, nil
}
