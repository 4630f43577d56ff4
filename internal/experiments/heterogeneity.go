package experiments

import (
	"context"
	"fmt"

	runspec "dpbyz/internal/spec"
)

// HeterogeneitySweepSpec is the heterogeneous-data analogue of the ε sweep:
// it measures how the DP × Byzantine tension sharpens as the workers' data
// departs from IID, by sweeping the Dirichlet label-skew concentration β
// (small β = extreme heterogeneity) for one or more aggregation rules under
// a fixed attack with DP noise on.
type HeterogeneitySweepSpec struct {
	// Betas are the Dirichlet concentrations to sweep (default
	// {0.1, 0.3, 1, 10} — extreme skew to near-IID).
	Betas []float64
	// GARNames are the rules to compare at each β (default {"mda"}).
	GARNames []string
	// BatchSize defaults to 50 (the Fig. 2 batch).
	BatchSize int
	// AttackName defaults to "alie"; any registry attack, including the
	// adaptive "ipm" and "drift", slots in.
	AttackName string
	// Epsilon is the per-step DP budget (default PaperEpsilon). DP is always
	// on: the sweep exists to expose the noise × heterogeneity interaction.
	Epsilon float64
	Scale   Scale
	// Sched configures the (gar, beta, seed) cell scheduler; results are
	// bit-identical at every Workers setting.
	Sched Sched
}

// HeterogeneityPoint is one (gar, β) sweep measurement aggregated over
// seeds.
type HeterogeneityPoint struct {
	GAR          string
	Beta         float64
	MinLossMean  float64
	FinalAccMean float64
	FinalAccStd  float64
}

// heteroCellSpec builds the serializable Spec of one (gar, β, seed) cell:
// the Fig. 2 hyperparameters with a Dirichlet partition riding on top, so
// any cell can be exported and replayed on any backend unchanged.
func heteroCellSpec(sw HeterogeneitySweepSpec, garName string, beta float64, seed int) runspec.Spec {
	fig := FigureSpec{ID: "hetsweep", BatchSize: sw.BatchSize, Epsilon: sw.Epsilon, Scale: sw.Scale}
	cond := Condition{Label: sw.AttackName + "+dp", AttackName: sw.AttackName, DP: true}
	s := CellSpec(fig, cond, seed)
	s.Name = fmt.Sprintf("hetsweep/%s/beta=%v", garName, beta)
	s.GAR = runspec.GARSpec{Name: garName, N: PaperWorkers, F: PaperByzantine}
	s.Partition = &runspec.PartitionSpec{Name: "dirichlet", Beta: beta}
	return s
}

// RunHeterogeneitySweep executes the β × GAR grid across the configured
// seeds on the deterministic cell scheduler. Per-seed datasets are built
// once and shared read-only across every (gar, β) condition; the Dirichlet
// partition itself is materialized per cell from the shared split (it is a
// pure function of the Spec, so this costs index shuffles, not data copies).
// Results are BIT-IDENTICAL at every Sched.Workers setting.
func RunHeterogeneitySweep(ctx context.Context, sw HeterogeneitySweepSpec) ([]HeterogeneityPoint, error) {
	if len(sw.Betas) == 0 {
		sw.Betas = []float64{0.1, 0.3, 1, 10}
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
	g, err := phishingGrid("hetsweep", sw.Sched, sw.Scale, 0)
	if err != nil {
		return nil, err
	}
	out := make([]HeterogeneityPoint, 0, len(sw.GARNames)*len(sw.Betas))
	for _, garName := range sw.GARNames {
		for _, beta := range sw.Betas {
			out = append(out, HeterogeneityPoint{GAR: garName, Beta: beta})
			g.conds = append(g.conds, Condition{
				Label: fmt.Sprintf("%s beta=%v", garName, beta), AttackName: sw.AttackName, DP: true,
			})
		}
	}
	g.spec = func(ci, seed int) runspec.Spec {
		return heteroCellSpec(sw, out[ci].GAR, out[ci].Beta, seed)
	}
	cells, _, err := g.run(ctx)
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		out[ci].MinLossMean = cell.MinLossMean
		out[ci].FinalAccMean = cell.FinalAccMean
		out[ci].FinalAccStd = cell.FinalAccStd
	}
	return out, nil
}
