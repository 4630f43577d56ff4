package experiments

import (
	"fmt"
	"strconv"
)

// The batch-size crossover sweep sits behind the paper's §5.2 takeaway: the
// batch size at which DP and Byzantine resilience can be combined (500) is
// ~10× the one at which either works alone (50) and ~50× the one sufficient
// for plain convergence (10).
var crossoverBatches = []int{10, 25, 50, 100, 250, 500}

// crossoverTolerance is the relative accuracy loss (vs the clean baseline at
// the same b) below which a condition counts as "working".
const crossoverTolerance = 0.05

// crossoverRegimes is the number of rows per batch size: the first four
// conditions of grid() — clean baseline, DP only, attack only, DP + attack —
// in CrossoverPoint field order.
const crossoverRegimes = 4

// CrossoverSweep runs the crossover's four regimes at every batch size of
// the grid; Crossover pivots its cells into CrossoverPoints.
func CrossoverSweep(scale Scale) Sweep {
	sw := phishingSweep("crossover", "Batch-size crossover (final accuracy per condition)",
		scale, []Key{{"batch", 8}, {"regime", 12}}, []Metric{MetricFinalAcc})
	for _, b := range crossoverBatches {
		for _, cond := range grid()[:crossoverRegimes] {
			sw.Rows = append(sw.Rows, Row{
				Keys: []string{"b=" + strconv.Itoa(b), cond.Label},
				Spec: paperSpec(sw.ID, scale, b, PaperEpsilon, cond),
			})
		}
	}
	return sw
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
	// within the tolerance of the baseline.
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

// Crossover pivots the cells Run returned for a CrossoverSweep (or any
// trimming of it that keeps whole batch sizes) into one point per batch size
// and locates the three crossover points. It rejects rows that are not whole,
// ordered four-regime groups at one batch size.
func Crossover(sw Sweep, cells []CellResult) (*CrossoverResult, error) {
	if len(cells) != len(sw.Rows) || len(cells)%crossoverRegimes != 0 {
		return nil, fmt.Errorf("experiments: crossover: %d cells for %d rows, want whole groups of %d",
			len(cells), len(sw.Rows), crossoverRegimes)
	}
	regimes := grid()[:crossoverRegimes]
	res := &CrossoverResult{
		MinBatchDPOnly:     -1,
		MinBatchAttackOnly: -1,
		MinBatchCombined:   -1,
	}
	for i := 0; i < len(cells); i += crossoverRegimes {
		b := sw.Rows[i].Spec.BatchSize
		for j, row := range sw.Rows[i : i+crossoverRegimes] {
			if row.Spec.BatchSize != b || len(row.Keys) == 0 || row.Keys[len(row.Keys)-1] != regimes[j].Label {
				return nil, fmt.Errorf("experiments: crossover: row %s is not regime %s at b=%d",
					row.label(), regimes[j].Label, b)
			}
		}
		acc := cells[i : i+crossoverRegimes]
		point := CrossoverPoint{
			BatchSize:     b,
			BaselineAcc:   acc[0].FinalAccMean,
			DPOnlyAcc:     acc[1].FinalAccMean,
			AttackOnlyAcc: acc[2].FinalAccMean,
			CombinedAcc:   acc[3].FinalAccMean,
		}
		threshold := point.BaselineAcc * (1 - crossoverTolerance)
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

// Table renders the crossover under title: one row per batch size, its four
// accuracies and which conditions work (D, A, C for DP only, attack only,
// combined), with the three crossover batch sizes as the footer.
func (res *CrossoverResult) Table(title string) Table {
	t := Table{
		Title: title,
		Columns: []Column{{"batch", 8, "%-*d"}, {"baseline", 10, "%*.4f"}, {"dp-only", 10, "%*.4f"},
			{"attack-only", 12, "%*.4f"}, {"combined", 10, "%*.4f"}, {"ok?", 8, "%*s"}},
		Footer: fmt.Sprintf("crossovers: dp-only b>=%d, attack-only b>=%d, combined b>=%d",
			res.MinBatchDPOnly, res.MinBatchAttackOnly, res.MinBatchCombined),
	}
	for _, p := range res.Points {
		verdict := ""
		if p.DPOnlyOK {
			verdict += "D"
		}
		if p.AttackOnlyOK {
			verdict += "A"
		}
		if p.CombinedOK {
			verdict += "C"
		}
		t.Rows = append(t.Rows, []any{p.BatchSize, p.BaselineAcc, p.DPOnlyAcc, p.AttackOnlyAcc, p.CombinedAcc, verdict})
	}
	return t
}
