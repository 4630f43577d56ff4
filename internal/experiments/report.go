package experiments

import (
	"fmt"
	"io"
	"strings"
)

// This file renders experiment results as the plain-text tables that
// cmd/dpbyz-experiments prints: every experiment returns Tables, and
// WriteTables is the one writer.

// Table is one printed table: an optional title, a header line, one line
// per row and an optional footer.
type Table struct {
	// Title, when non-empty, is printed above the header.
	Title   string
	Columns []Column
	// Rows hold one cell per column, printed by the column's Verb.
	Rows [][]any
	// Footer, when non-empty, is printed under the last row.
	Footer string
}

// Column is one table column: its header, the width its cells are padded
// to, and the fmt verb that prints a cell at that width ("%*.5f"; the width
// is the verb's * argument). A verb that starts with "%-" left-aligns the
// column, header included; every other verb right-aligns it.
type Column struct {
	Header string
	Width  int
	Verb   string
}

// WriteTables prints the tables one after another, the cells of each line
// single-space separated.
func WriteTables(w io.Writer, tables ...Table) error {
	var b strings.Builder
	for _, t := range tables {
		if t.Title != "" {
			b.WriteString(t.Title + "\n")
		}
		cells := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			verb := "%*s"
			if strings.HasPrefix(c.Verb, "%-") {
				verb = "%-*s"
			}
			cells[i] = fmt.Sprintf(verb, c.Width, c.Header)
		}
		b.WriteString(strings.Join(cells, " ") + "\n")
		for _, row := range t.Rows {
			for i, c := range t.Columns {
				cells[i] = fmt.Sprintf(c.Verb, c.Width, row[i])
			}
			b.WriteString(strings.Join(cells, " ") + "\n")
		}
		if t.Footer != "" {
			b.WriteString(t.Footer + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Metric names one metric column of a Sweep's table.
type Metric int

// The metric columns a Sweep's table can print.
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

// metricColumns is every metric column, indexed by Metric: the column and
// the value it prints.
var metricColumns = [...]struct {
	Column
	value func(c *CellResult) any
}{
	MetricMinLoss:    {Column{"min-loss", 12, "%*.5f"}, func(c *CellResult) any { return c.MinLossMean }},
	MetricStepsToMin: {Column{"steps-to-min", 12, "%*.1f"}, func(c *CellResult) any { return c.StepsToMinMean }},
	MetricFinalAcc:   {Column{"final-acc", 14, "%*.4f"}, func(c *CellResult) any { return c.FinalAccMean }},
	MetricAccStd:     {Column{"acc-std", 12, "%*.4f"}, func(c *CellResult) any { return c.FinalAccStd }},
	MetricAccepted:   {Column{"accepted", 10, "%*d"}, func(c *CellResult) any { return c.Accepted }},
	MetricMissed:     {Column{"missed", 8, "%*d"}, func(c *CellResult) any { return c.Missed }},
	MetricDiscarded:  {Column{"discarded", 10, "%*d"}, func(c *CellResult) any { return c.Discarded }},
	MetricCredited:   {Column{"credited", 9, "%*d"}, func(c *CellResult) any { return c.Credited }},
}

// Table renders a sweep's cells (as Run returned them, one per row) under
// the sweep's title: the key columns left-aligned, then the metric columns.
func (sw Sweep) Table(cells []CellResult) Table {
	t := Table{Title: sw.Title}
	for _, k := range sw.Keys {
		t.Columns = append(t.Columns, Column{k.Header, k.Width, "%-*s"})
	}
	for _, m := range sw.Metrics {
		t.Columns = append(t.Columns, metricColumns[m].Column)
	}
	for ri := range cells {
		row := make([]any, 0, len(t.Columns))
		for _, k := range sw.Rows[ri].Keys {
			row = append(row, k)
		}
		for _, m := range sw.Metrics {
			row = append(row, metricColumns[m].value(&cells[ri]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
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
