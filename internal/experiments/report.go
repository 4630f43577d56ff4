package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders experiment results as the plain-text tables that
// cmd/dpbyz-experiments prints.

// WriteFigureReport renders a figure's cells as an aligned table: one row
// per condition with min-loss, steps-to-min and final accuracy.
func WriteFigureReport(w io.Writer, res *FigureResult) error {
	if _, err := fmt.Fprintf(w, "%s (b=%d, eps=%g, steps=%d, seeds=%d)\n",
		res.Spec.ID, res.Spec.BatchSize, res.Spec.Epsilon,
		res.Spec.Scale.steps(), res.Spec.Scale.seeds()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %12s %12s %14s %12s\n",
		"condition", "min-loss", "steps-to-min", "final-acc", "acc-std"); err != nil {
		return err
	}
	for _, c := range res.Cells {
		if _, err := fmt.Fprintf(w, "%-12s %12.5f %12.1f %14.4f %12.4f\n",
			c.Condition.Label, c.MinLossMean, c.StepsToMinMean,
			c.FinalAccMean, c.FinalAccStd); err != nil {
			return err
		}
	}
	return nil
}

// WriteCellReport renders a single aggregated cell — the output of the
// spec-driven experiment mode (RunSpecCell).
func WriteCellReport(w io.Writer, c *CellResult, seeds int) error {
	if _, err := fmt.Fprintf(w, "%-12s %12s %12s %14s %12s\n",
		"cell", "min-loss", "steps-to-min", "final-acc", "acc-std"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%-12s %12.5f %12.1f %14.4f %12.4f  (%d seeds)\n",
		c.Condition.Label, c.MinLossMean, c.StepsToMinMean,
		c.FinalAccMean, c.FinalAccStd, seeds)
	return err
}

// WriteTheorem1Report renders the d sweep with the DP/clear error ratio.
func WriteTheorem1Report(w io.Writer, points []Theorem1Point) error {
	if _, err := fmt.Fprintf(w, "%-8s %14s %14s %10s\n",
		"dim", "err-dp", "err-clear", "ratio"); err != nil {
		return err
	}
	for _, p := range points {
		ratio := p.ErrDP / p.ErrClear
		if _, err := fmt.Fprintf(w, "%-8d %14.6g %14.6g %10.2f\n",
			p.Dim, p.ErrDP, p.ErrClear, ratio); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable1Report renders the necessary-condition table per model size.
func WriteTable1Report(w io.Writer, results []Table1Result, batch int, frac float64) error {
	if _, err := fmt.Fprintf(w,
		"Table 1 necessary conditions (b=%d, f/n=%.3f)\n", batch, frac); err != nil {
		return err
	}
	for _, res := range results {
		if _, err := fmt.Fprintf(w, "d = %d\n", res.Dim); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-12s %-14s %12s %16s %10s\n",
			"rule", "kind", "k_F", "threshold", "satisfied"); err != nil {
			return err
		}
		for _, row := range res.Rows {
			if _, err := fmt.Fprintf(w, "  %-12s %-14s %12.5g %16.6g %10v\n",
				row.Rule, row.Kind, row.KF, row.Threshold, row.Satisfied); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteEpsilonSweepReport renders the ε sweep.
func WriteEpsilonSweepReport(w io.Writer, points []EpsilonPoint) error {
	if _, err := fmt.Fprintf(w, "%-10s %12s %14s %12s\n",
		"epsilon", "min-loss", "final-acc", "acc-std"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-10.3g %12.5f %14.4f %12.4f\n",
			p.Epsilon, p.MinLossMean, p.FinalAccMean, p.FinalAccStd); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeterogeneitySweepReport renders the Dirichlet-β heterogeneity sweep.
func WriteHeterogeneitySweepReport(w io.Writer, points []HeterogeneityPoint) error {
	if _, err := fmt.Fprintf(w, "%-14s %-8s %12s %14s %12s\n",
		"gar", "beta", "min-loss", "final-acc", "acc-std"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-14s %-8.3g %12.5f %14.4f %12.4f\n",
			p.GAR, p.Beta, p.MinLossMean, p.FinalAccMean, p.FinalAccStd); err != nil {
			return err
		}
	}
	return nil
}

// WriteStalenessSweepReport renders the bounded-staleness quorum sweep with
// its exact delivery accounting (summed across seeds).
func WriteStalenessSweepReport(w io.Writer, points []StalenessPoint) error {
	if _, err := fmt.Fprintf(w, "%-14s %-6s %12s %14s %12s %10s %8s %10s %9s\n",
		"gar", "s", "min-loss", "final-acc", "acc-std",
		"accepted", "missed", "discarded", "credited"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-14s %-6d %12.5f %14.4f %12.4f %10d %8d %10d %9d\n",
			p.GAR, p.Stragglers, p.MinLossMean, p.FinalAccMean, p.FinalAccStd,
			p.Accepted, p.Missed, p.Discarded, p.Credited); err != nil {
			return err
		}
	}
	return nil
}

// Summary produces a one-line qualitative verdict for a figure, used in
// logs: which conditions converged and which did not, judged against the
// unattacked clear baseline.
func Summary(res *FigureResult) string {
	base := res.Cell("none+clear")
	if base == nil {
		return res.Spec.ID + ": missing baseline"
	}
	var good, bad []string
	for _, c := range res.Cells {
		if c.Condition.Label == "none+clear" {
			continue
		}
		// "Comparable" = min loss within 50% of baseline's.
		if c.MinLossMean <= base.MinLossMean*1.5 {
			good = append(good, c.Condition.Label)
		} else {
			bad = append(bad, c.Condition.Label)
		}
	}
	return fmt.Sprintf("%s: comparable-to-baseline=[%s] degraded=[%s]",
		res.Spec.ID, strings.Join(good, " "), strings.Join(bad, " "))
}

// WriteVNEmpiricalReport renders the empirical VN-ratio sweep: one line per
// batch size with the clear and DP-adjusted ratios and the per-rule verdict.
func WriteVNEmpiricalReport(w io.Writer, points []VNEmpiricalPoint) error {
	if len(points) == 0 {
		return nil
	}
	rules := make([]string, 0, len(points[0].Holds))
	for name := range points[0].Holds {
		rules = append(rules, name)
	}
	sort.Strings(rules)
	if _, err := fmt.Fprintf(w, "%-8s %14s %14s", "batch", "vn-clear", "vn-dp"); err != nil {
		return err
	}
	for _, r := range rules {
		if _, err := fmt.Fprintf(w, " %12s", r); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-8d %14.5g %14.5g", p.BatchSize, p.RatioClear, p.RatioDP); err != nil {
			return err
		}
		for _, r := range rules {
			if _, err := fmt.Fprintf(w, " %12v", p.Holds[r]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCrossoverReport renders the batch-size crossover sweep.
func WriteCrossoverReport(w io.Writer, res *CrossoverResult) error {
	if _, err := fmt.Fprintf(w, "%-8s %10s %10s %12s %10s %8s\n",
		"batch", "baseline", "dp-only", "attack-only", "combined", "ok?"); err != nil {
		return err
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
		if _, err := fmt.Fprintf(w, "%-8d %10.4f %10.4f %12.4f %10.4f %8s\n",
			p.BatchSize, p.BaselineAcc, p.DPOnlyAcc, p.AttackOnlyAcc, p.CombinedAcc, verdict); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"crossovers: dp-only b>=%d, attack-only b>=%d, combined b>=%d\n",
		res.MinBatchDPOnly, res.MinBatchAttackOnly, res.MinBatchCombined)
	return err
}

// WriteTheorem1SweepReports renders the b and T sweeps of Theorem 1's rate.
func WriteTheorem1SweepReports(w io.Writer, bs []Theorem1BatchPoint, ts []Theorem1StepsPoint) error {
	if len(bs) > 0 {
		if _, err := fmt.Fprintf(w, "%-8s %14s\n", "batch", "err-dp"); err != nil {
			return err
		}
		for _, p := range bs {
			if _, err := fmt.Fprintf(w, "%-8d %14.6g\n", p.BatchSize, p.ErrDP); err != nil {
				return err
			}
		}
	}
	if len(ts) > 0 {
		if _, err := fmt.Fprintf(w, "%-8s %14s\n", "steps", "err-dp"); err != nil {
			return err
		}
		for _, p := range ts {
			if _, err := fmt.Fprintf(w, "%-8d %14.6g\n", p.Steps, p.ErrDP); err != nil {
				return err
			}
		}
	}
	return nil
}
