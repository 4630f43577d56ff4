// Command dpbyz-experiments regenerates the paper's tables and figures.
//
//	dpbyz-experiments -exp all            # everything, paper scale
//	dpbyz-experiments -exp fig2 -smoke    # one figure, reduced scale
//	dpbyz-experiments -exp spec -spec run.json -seeds 5
//
// Experiments: fig2, fig3, fig4 (loss/accuracy grids at b = 50/10/500),
// table1 (VN-condition thresholds across model sizes), thm1 (error rate vs
// model dimension), epssweep (the full version's ε sweep), hetsweep (the
// heterogeneity sweep: Dirichlet label-skew β × aggregation rule under
// attack with DP on), stalesweep (the bounded-staleness sweep: per-round
// straggler count × aggregation rule with exact delivery accounting) and
// spec (any JSON run spec — the same file
// dpbyz-train and the cluster binaries consume — repeated across seeds and
// aggregated like a grid cell).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dpbyz"
	"dpbyz/internal/experiments"
)

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

	wanted := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, w := range wanted {
			if w == "all" || w == name {
				return true
			}
		}
		return false
	}
	ran := 0

	for _, fig := range []struct {
		name string
		spec experiments.FigureSpec
	}{
		{name: "fig2", spec: experiments.Figure2(scale)},
		{name: "fig3", spec: experiments.Figure3(scale)},
		{name: "fig4", spec: experiments.Figure4(scale)},
		{name: "figmlp", spec: experiments.FigureMLP(scale)},
	} {
		if !want(fig.name) {
			continue
		}
		ran++
		fmt.Fprintf(stderr, "running %s...\n", fig.name)
		fig.spec.Sched = sched(fig.name)
		res, err := experiments.RunFigure(ctx, fig.spec)
		if err != nil {
			return err
		}
		if err := experiments.WriteFigureReport(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.Summary(res))
		fmt.Fprintln(stdout)
	}

	if want("table1") {
		ran++
		spec := experiments.Table1Spec{}
		res, err := experiments.RunTable1(spec)
		if err != nil {
			return err
		}
		if err := experiments.WriteTable1Report(stdout, res, 50, 5.0/23); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("thm1") {
		ran++
		fmt.Fprintln(stderr, "running thm1...")
		spec := experiments.Theorem1Spec{}
		if *smoke {
			spec = experiments.Theorem1Spec{Dims: []int{8, 32, 128}, Steps: 150, Seeds: 2, DatasetSize: 1500}
		}
		points, err := experiments.RunTheorem1(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Theorem 1: final suboptimality vs model dimension")
		if err := experiments.WriteTheorem1Report(stdout, points); err != nil {
			return err
		}
		bPoints, err := experiments.RunTheorem1BatchSweep(ctx, spec, nil)
		if err != nil {
			return err
		}
		tPoints, err := experiments.RunTheorem1StepsSweep(ctx, spec, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Theorem 1: rate factors 1/b^2 and 1/T (unclipped harness)")
		if err := experiments.WriteTheorem1SweepReports(stdout, bPoints, tPoints); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("vnempirical") {
		ran++
		fmt.Fprintln(stderr, "running vnempirical...")
		points, err := experiments.RunVNEmpirical(ctx, experiments.VNEmpiricalSpec{})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Empirical DP-adjusted VN ratio vs k_F(n, f) (Eq. 8)")
		if err := experiments.WriteVNEmpiricalReport(stdout, points); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("crossover") {
		ran++
		fmt.Fprintln(stderr, "running crossover...")
		res, err := experiments.RunCrossover(ctx, experiments.CrossoverSpec{Scale: scale})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Batch-size crossover (final accuracy per condition)")
		if err := experiments.WriteCrossoverReport(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("epssweep") {
		ran++
		fmt.Fprintln(stderr, "running epssweep...")
		points, err := experiments.RunEpsilonSweep(ctx,
			experiments.EpsilonSweepSpec{Scale: scale, Sched: sched("epssweep")})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Epsilon sweep (alie attack, MDA, DP on)")
		if err := experiments.WriteEpsilonSweepReport(stdout, points); err != nil {
			return err
		}
	}

	if want("hetsweep") {
		ran++
		fmt.Fprintln(stderr, "running hetsweep...")
		points, err := experiments.RunHeterogeneitySweep(ctx, experiments.HeterogeneitySweepSpec{
			GARNames: []string{"mda", "trimmedmean"},
			Scale:    scale,
			Sched:    sched("hetsweep"),
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Heterogeneity sweep (Dirichlet beta, alie attack, DP on)")
		if err := experiments.WriteHeterogeneitySweepReport(stdout, points); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("stalesweep") {
		ran++
		fmt.Fprintln(stderr, "running stalesweep...")
		points, err := experiments.RunStalenessSweep(ctx, experiments.StalenessSweepSpec{
			GARNames: []string{"mda", "trimmedmean"},
			Scale:    scale,
			Sched:    sched("stalesweep"),
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Staleness sweep (quorum = n-f-s, late frames credited, alie attack, DP on)")
		if err := experiments.WriteStalenessSweepReport(stdout, points); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if want("spec") && *specPath != "" {
		ran++
		fmt.Fprintln(stderr, "running spec...")
		s, err := dpbyz.LoadSpec(*specPath)
		if err != nil {
			return err
		}
		cfg := experiments.SpecCellConfig{Run: *s, Seeds: *seeds, Sched: sched("spec")}
		if cfg.Seeds == 0 && !*smoke {
			cfg.Seeds = experiments.PaperSeeds
		}
		if *steps > 0 {
			cfg.Run.Steps = *steps
		}
		cell, err := experiments.RunSpecCell(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Spec cell %s (%s)\n", cell.Condition.Label, *specPath)
		if err := experiments.WriteCellReport(stdout, cell, max(cfg.Seeds, 1)); err != nil {
			return err
		}
	} else if want("spec") && *exp == "spec" {
		return fmt.Errorf("-exp spec needs -spec <file> (generate one with dpbyz-train -dump-spec)")
	}

	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
