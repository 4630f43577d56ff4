// Command dpbyz-experiments regenerates the paper's tables and figures.
//
//	dpbyz-experiments -exp all            # everything, paper scale
//	dpbyz-experiments -exp fig2 -smoke    # one figure, reduced scale
//	dpbyz-experiments -exp spec -spec run.json -seeds 5
//
// Experiments, in output order: fig2, fig3, fig4 (loss/accuracy grids at
// b = 50/10/500), figmlp (the Fig. 2 grid on an MLP), table1 (VN-condition
// thresholds across model sizes), thm1 (error rate vs model dimension,
// batch size and steps), vnempirical (the measured DP-adjusted VN ratio),
// crossover (the batch size at which DP and Byzantine resilience combine),
// epssweep (the full version's ε sweep), hetsweep (Dirichlet label-skew β ×
// aggregation rule under attack with DP on), stalesweep (per-round
// straggler count × aggregation rule with exact delivery accounting) and
// spec (any JSON run spec — the same file dpbyz-train and the cluster
// binaries consume — repeated across seeds and aggregated like a grid row).
// -exp takes a comma-separated list; an unknown name is an error. Every
// Spec-driven table is one experiments.Sweep, run by experiments.Run. Every
// experiment returns experiments.Tables, and the one writer
// experiments.WriteTables prints them; each experiment's output ends with a
// blank line. -steps and -seeds override the step and seed counts of every
// experiment that trains (the Theorem 1 T sweep keeps its own step grid).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"dpbyz"
	"dpbyz/internal/experiments"
)

// experiment is one -exp name and the tables it prints.
type experiment struct {
	name string
	run  func(ctx context.Context) ([]experiments.Table, error)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dpbyz-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	// ExitOnError keeps what flag.Parse did: a usage error exits 2, -h exits 0.
	fs := flag.NewFlagSet("dpbyz-experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: all|fig2|fig3|fig4|figmlp|table1|thm1|epssweep|hetsweep|stalesweep|vnempirical|crossover|spec")
		specPath = fs.String("spec", "", "JSON run-spec file for -exp spec: the spec is repeated across -seeds and aggregated like a grid cell")
		smoke    = fs.Bool("smoke", false, "run at reduced scale (fast sanity pass)")
		steps    = fs.Int("steps", 0, "override step count (0 = experiment default)")
		seeds    = fs.Int("seeds", 0, "override seed count (0 = experiment default)")
		parallel = fs.Int("parallel", 0, "max concurrent (condition, seed) cells (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
		progress = fs.Bool("progress", true, "report per-cell grid progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale := experiments.Scale{Steps: *steps, Seeds: *seeds}
	if *smoke {
		scale = experiments.ScaleSmall()
		if *steps > 0 {
			scale.Steps = *steps
		}
		if *seeds > 0 {
			scale.Seeds = *seeds
		}
	}
	sched := func(name string) experiments.Sched {
		s := experiments.Sched{Workers: *parallel}
		if *progress {
			s.Progress = func(done, total int, label string) {
				fmt.Fprintf(stderr, "  %s: %d/%d cells (%s)\n", name, done, total, label)
			}
		}
		return s
	}

	// table runs one Spec-driven sweep; a figure's footer is its one-line
	// verdict.
	table := func(sw experiments.Sweep, summary bool) func(context.Context) ([]experiments.Table, error) {
		return func(ctx context.Context) ([]experiments.Table, error) {
			cells, err := experiments.Run(ctx, sw, sched(sw.ID))
			if err != nil {
				return nil, err
			}
			t := sw.Table(cells)
			if summary {
				t.Footer = experiments.Summary(sw, cells)
			}
			return []experiments.Table{t}, nil
		}
	}

	// The registry, in output order. Every entry's tables are followed by
	// one blank line.
	registry := []experiment{
		{"fig2", table(experiments.Figure2(scale), true)},
		{"fig3", table(experiments.Figure3(scale), true)},
		{"fig4", table(experiments.Figure4(scale), true)},
		{"figmlp", table(experiments.FigureMLP(scale), true)},
		{"table1", func(context.Context) ([]experiments.Table, error) { return experiments.RunTable1() }},
		{"thm1", func(ctx context.Context) ([]experiments.Table, error) {
			var spec experiments.Theorem1Spec
			if *smoke {
				spec = experiments.Theorem1Spec{Dims: []int{8, 32, 128}, Steps: 150, Seeds: 2, DatasetSize: 1500}
			}
			if *steps > 0 {
				spec.Steps = *steps
			}
			if *seeds > 0 {
				spec.Seeds = *seeds
			}
			var out []experiments.Table
			for _, sweep := range []func(context.Context, experiments.Theorem1Spec) (experiments.Table, error){
				experiments.RunTheorem1, experiments.RunTheorem1BatchSweep, experiments.RunTheorem1StepsSweep,
			} {
				t, err := sweep(ctx, spec)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"vnempirical", func(ctx context.Context) ([]experiments.Table, error) {
			t, err := experiments.RunVNEmpirical(ctx)
			return []experiments.Table{t}, err
		}},
		{"crossover", func(ctx context.Context) ([]experiments.Table, error) {
			sw := experiments.CrossoverSweep(scale)
			cells, err := experiments.Run(ctx, sw, sched(sw.ID))
			if err != nil {
				return nil, err
			}
			res, err := experiments.Crossover(sw, cells)
			if err != nil {
				return nil, err
			}
			return []experiments.Table{res.Table(sw.Title)}, nil
		}},
		{"epssweep", table(experiments.EpsilonSweep(scale), false)},
		{"hetsweep", table(experiments.HeterogeneitySweep(scale), false)},
		{"stalesweep", table(experiments.StalenessSweep(scale), false)},
		{"spec", func(ctx context.Context) ([]experiments.Table, error) {
			s, err := dpbyz.LoadSpec(*specPath)
			if err != nil {
				return nil, err
			}
			n := *seeds
			if n == 0 && !*smoke {
				n = experiments.PaperSeeds
			}
			if *steps > 0 {
				s.Steps = *steps
			}
			return table(experiments.SpecCell(*s, n), false)(ctx)
		}},
	}

	wanted := strings.Split(*exp, ",")
	all := slices.Contains(wanted, "all")
	for _, name := range wanted {
		if name != "all" && !slices.ContainsFunc(registry, func(e experiment) bool { return e.name == name }) {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if slices.Contains(wanted, "spec") && *specPath == "" {
		return fmt.Errorf("-exp spec needs -spec <file> (generate one with dpbyz-train -dump-spec)")
	}
	for _, e := range registry {
		if !all && !slices.Contains(wanted, e.name) || e.name == "spec" && *specPath == "" {
			continue
		}
		fmt.Fprintf(stderr, "running %s...\n", e.name)
		tables, err := e.run(ctx)
		if err != nil {
			return err
		}
		if err := experiments.WriteTables(stdout, tables...); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
