package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders experiment results as the plain-text tables that
// cmd/dpbyz-experiments prints.

// Metric names one metric column of a Sweep's table.
type Metric int

// The metric columns WriteTable can print.
const (
	MetricMinLoss Metric = iota
	MetricStepsToMin
	MetricFinalAcc
	MetricAccStd
	MetricAccepted
	MetricMissed
	MetricDiscarded
	MetricCredited
)

// metricColumn is how WriteTable prints one Metric: its header, its width,
// the verb that prints a value at that width, and the value.
type metricColumn struct {
	header string
	width  int
	verb   string
	value  func(c *CellResult) any
}

// metricColumns is every metric column, indexed by Metric.
var metricColumns = [...]metricColumn{
	MetricMinLoss:    {"min-loss", 12, "%*.5f", func(c *CellResult) any { return c.MinLossMean }},
	MetricStepsToMin: {"steps-to-min", 12, "%*.1f", func(c *CellResult) any { return c.StepsToMinMean }},
	MetricFinalAcc:   {"final-acc", 14, "%*.4f", func(c *CellResult) any { return c.FinalAccMean }},
	MetricAccStd:     {"acc-std", 12, "%*.4f", func(c *CellResult) any { return c.FinalAccStd }},
	MetricAccepted:   {"accepted", 10, "%*d", func(c *CellResult) any { return c.Accepted }},
	MetricMissed:     {"missed", 8, "%*d", func(c *CellResult) any { return c.Missed }},
	MetricDiscarded:  {"discarded", 10, "%*d", func(c *CellResult) any { return c.Discarded }},
	MetricCredited:   {"credited", 9, "%*d", func(c *CellResult) any { return c.Credited }},
}

// WriteTable renders a sweep's cells (as Run returned them, one per row) as
// an aligned table under the sweep's title: the key columns left-aligned,
// then the metric columns right-aligned, single-space separated.
func WriteTable(w io.Writer, sw Sweep, cells []CellResult) error {
	var b strings.Builder
	b.WriteString(sw.Title + "\n")
	line := func(keys []string, metric func(col metricColumn) string) {
		cols := make([]string, 0, len(sw.Keys)+len(sw.Metrics))
		for i, k := range sw.Keys {
			cols = append(cols, fmt.Sprintf("%-*s", k.Width, keys[i]))
		}
		for _, m := range sw.Metrics {
			cols = append(cols, metric(metricColumns[m]))
		}
		b.WriteString(strings.Join(cols, " ") + "\n")
	}
	headers := make([]string, len(sw.Keys))
	for i, k := range sw.Keys {
		headers[i] = k.Header
	}
	line(headers, func(col metricColumn) string { return fmt.Sprintf("%*s", col.width, col.header) })
	for ri := range cells {
		line(sw.Rows[ri].Keys, func(col metricColumn) string {
			return fmt.Sprintf(col.verb, col.width, col.value(&cells[ri]))
		})
	}
	_, err := io.WriteString(w, b.String())
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

// WriteTable1Report renders the necessary-condition table per model size,
// under a header naming the batch size and f/n it was computed at.
func WriteTable1Report(w io.Writer, results []Table1Result) error {
	if _, err := fmt.Fprintf(w, "Table 1 necessary conditions (b=%d, f/n=%.3f)\n",
		table1Batch, float64(table1Byzantine)/table1Workers); err != nil {
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

// Summary produces a one-line qualitative verdict for a figure's cells:
// which conditions converged and which did not, judged against the
// unattacked clear baseline.
func Summary(sw Sweep, cells []CellResult) string {
	base := Cell(cells, "none+clear")
	if base == nil {
		return sw.ID + ": missing baseline"
	}
	var good, bad []string
	for _, c := range cells {
		if c.Label == "none+clear" {
			continue
		}
		// "Comparable" = min loss within 50% of baseline's.
		if c.MinLossMean <= base.MinLossMean*1.5 {
			good = append(good, c.Label)
		} else {
			bad = append(bad, c.Label)
		}
	}
	return fmt.Sprintf("%s: comparable-to-baseline=[%s] degraded=[%s]",
		sw.ID, strings.Join(good, " "), strings.Join(bad, " "))
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
