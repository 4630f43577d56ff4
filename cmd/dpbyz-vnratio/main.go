// Command dpbyz-vnratio evaluates the paper's Table 1 necessary conditions
// for a concrete configuration: given (n, f, b, d, ε, δ) it prints each
// rule's k_F(n, f) bound, the analytical threshold from Propositions 1–3,
// and whether the configuration satisfies it, in the columns
// dpbyz-experiments -exp table1 prints.
//
//	dpbyz-vnratio -n 11 -f 5 -batch 50 -dim 69
//	dpbyz-vnratio -n 23 -f 5 -batch 128 -dim 25600000   # ResNet-50 scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpbyz"
	"dpbyz/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpbyz-vnratio:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// ExitOnError keeps what flag.Parse did: a usage error exits 2, -h exits 0.
	fs := flag.NewFlagSet("dpbyz-vnratio", flag.ExitOnError)
	var (
		n       = fs.Int("n", 11, "total workers")
		f       = fs.Int("f", 5, "max Byzantine workers")
		batch   = fs.Int("batch", 50, "batch size b")
		dim     = fs.Int("dim", 69, "model size d")
		epsilon = fs.Float64("eps", 0.2, "per-step epsilon")
		delta   = fs.Float64("delta", 1e-6, "per-step delta")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rows, err := dpbyz.Table1(*n, *f, *batch, *dim, dpbyz.Budget{Epsilon: *epsilon, Delta: *delta})
	if err != nil {
		return err
	}
	t := experiments.Table{
		Title: fmt.Sprintf("n=%d f=%d (f/n=%.3f) b=%d d=%d eps=%g delta=%g",
			*n, *f, float64(*f)/float64(*n), *batch, *dim, *epsilon, *delta),
		Columns: experiments.Table1Columns,
		Footer: "\nkind=min-batch: condition requires batch size b >= threshold\n" +
			"kind=max-byz-frac: condition requires f/n <= threshold",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, experiments.Table1Cells(r))
	}
	return experiments.WriteTables(stdout, t)
}
