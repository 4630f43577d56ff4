package experiments

import (
	"context"
	"fmt"

	runspec "dpbyz/internal/spec"
)

// CrossoverSpec configures the batch-size crossover sweep behind the
// paper's §5.2 takeaway: the batch size at which DP and Byzantine
// resilience can be combined (500) is ~10× the one at which either works
// alone (50) and ~50× the one sufficient for plain convergence (10).
type CrossoverSpec struct {
	// BatchSizes is the b grid (default {10, 25, 50, 100, 250, 500}).
	BatchSizes []int
	// AttackName is the attack of the combined cell (default "alie").
	AttackName string
	// Epsilon is the DP parameter (default 0.2).
	Epsilon float64
	// Tolerance is the relative accuracy loss (vs the clean baseline at the
	// same b) below which a condition counts as "working" (default 0.05).
	Tolerance float64
	Scale     Scale
}

func (s *CrossoverSpec) fillDefaults() {
	if len(s.BatchSizes) == 0 {
		s.BatchSizes = []int{10, 25, 50, 100, 250, 500}
	}
	if s.AttackName == "" {
		s.AttackName = "alie"
	}
	if s.Epsilon == 0 {
		s.Epsilon = PaperEpsilon
	}
	if s.Tolerance == 0 {
		s.Tolerance = 0.05
	}
}

// CrossoverPoint is one batch size's measurement of the three regimes.
type CrossoverPoint struct {
	BatchSize int
	// BaselineAcc is the clean (no DP, no attack) final accuracy.
	BaselineAcc float64
	// DPOnlyAcc, AttackOnlyAcc and CombinedAcc are the final accuracies of
	// the DP-only, attack-only and DP+attack conditions.
	DPOnlyAcc     float64
	AttackOnlyAcc float64
	CombinedAcc   float64
	// DPOnlyOK/AttackOnlyOK/CombinedOK report whether each condition is
	// within Tolerance of the baseline.
	DPOnlyOK     bool
	AttackOnlyOK bool
	CombinedOK   bool
}

// CrossoverResult is the sweep plus the three crossover batch sizes
// (-1 when never reached on the grid).
type CrossoverResult struct {
	Points []CrossoverPoint
	// MinBatchDPOnly is the smallest b where the DP-only condition works.
	MinBatchDPOnly int
	// MinBatchAttackOnly is the smallest b where attack-only works.
	MinBatchAttackOnly int
	// MinBatchCombined is the smallest b where DP+attack works — the
	// paper's antagonism gap is MinBatchCombined / MinBatchDPOnly.
	MinBatchCombined int
}

// RunCrossover sweeps the batch-size grid and locates the three crossover
// points. The (batch, regime, seed) cells run on the deterministic scheduler
// at its default width, over datasets built once per seed.
func RunCrossover(ctx context.Context, spec CrossoverSpec) (*CrossoverResult, error) {
	spec.fillDefaults()
	g, err := phishingGrid("crossover", Sched{}, spec.Scale, 0)
	if err != nil {
		return nil, err
	}
	// Four regimes per batch size, in CrossoverPoint field order.
	regimes := []Condition{
		{Label: "none+clear"},
		{Label: "none+dp", DP: true},
		{Label: spec.AttackName + "+clear", AttackName: spec.AttackName},
		{Label: spec.AttackName + "+dp", AttackName: spec.AttackName, DP: true},
	}
	for _, b := range spec.BatchSizes {
		for _, r := range regimes {
			g.conds = append(g.conds, Condition{
				Label: fmt.Sprintf("b=%d %s", b, r.Label), AttackName: r.AttackName, DP: r.DP,
			})
		}
	}
	g.spec = func(ci, seed int) runspec.Spec {
		fig := FigureSpec{
			ID: g.id, BatchSize: spec.BatchSizes[ci/len(regimes)], Epsilon: spec.Epsilon, Scale: spec.Scale,
		}
		return CellSpec(fig, regimes[ci%len(regimes)], seed)
	}
	cells, _, err := g.run(ctx)
	if err != nil {
		return nil, err
	}

	res := &CrossoverResult{
		MinBatchDPOnly:     -1,
		MinBatchAttackOnly: -1,
		MinBatchCombined:   -1,
	}
	for bi, b := range spec.BatchSizes {
		acc := cells[bi*len(regimes) : (bi+1)*len(regimes)]
		point := CrossoverPoint{
			BatchSize:     b,
			BaselineAcc:   acc[0].FinalAccMean,
			DPOnlyAcc:     acc[1].FinalAccMean,
			AttackOnlyAcc: acc[2].FinalAccMean,
			CombinedAcc:   acc[3].FinalAccMean,
		}
		threshold := point.BaselineAcc * (1 - spec.Tolerance)
		point.DPOnlyOK = point.DPOnlyAcc >= threshold
		point.AttackOnlyOK = point.AttackOnlyAcc >= threshold
		point.CombinedOK = point.CombinedAcc >= threshold
		if point.DPOnlyOK && res.MinBatchDPOnly < 0 {
			res.MinBatchDPOnly = b
		}
		if point.AttackOnlyOK && res.MinBatchAttackOnly < 0 {
			res.MinBatchAttackOnly = b
		}
		if point.CombinedOK && res.MinBatchCombined < 0 {
			res.MinBatchCombined = b
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}
