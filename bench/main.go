// Command bench is the repository's round-anatomy benchmark: four
// Spec-driven workloads, five end-to-end metrics, and a separate traced mode
// whose per-layer numbers are measured from outside the program. README.md in
// this directory says why each workload and metric was chosen and how to read
// the output; BENCHMARK.json at the repository root is its contract.
//
//	go run ./bench -workload fig2_local -seed 1
//	go run ./bench -workload all -trace 1 -spans spans.json
//	go run ./bench -selfcheck
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"fig2_local", "krum_wide_chan", "median_epoch_tcp", "fleet_sweep_http"}

func newWorkload(name string, opt options) (workload, error) {
	switch name {
	case "fig2_local":
		return &fig2Local{seed: opt.seed, tmpRoot: opt.tmpRoot}, nil
	case "krum_wide_chan":
		return newKrumWideChan(opt), nil
	case "median_epoch_tcp":
		return newMedianEpochTCP(opt), nil
	case "fleet_sweep_http":
		return &fleetSweep{seed: opt.seed, tmpRoot: opt.tmpRoot}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames, ", "))
}

// defaultTmpRoot picks where the fleet stores of a run live. A memory-backed
// directory comes first, because on a journaling filesystem the sweep's speed
// is set by the state of the journal — measured here: 41k rounds/s on a
// checkpointed ext4 journal falling to 16k over the next thirty seconds of
// sweeps, against a steady 95k on tmpfs — and that state is left behind by
// whatever ran before, this benchmark's previous invocation included.
func defaultTmpRoot() string {
	const shm = "/dev/shm"
	if dir, err := os.MkdirTemp(shm, "dpbyz-bench-probe-"); err == nil {
		_ = os.Remove(dir) // best effort: an empty directory in tmpfs
		return filepath.Join(shm, "dpbyz-bench")
	}
	return filepath.Join(".bench_build", "tmp")
}

// result is the last line an invocation prints on standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// flags are the parsed command line.
type flags struct {
	options
	workload  string
	trace     int
	spans     string
	smoke     bool
	selfcheck bool
}

func parseFlags(args []string, stderr io.Writer) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Uint64Var(&f.seed, "seed", 1, "seed every generated Spec derives its Seed and Data.Seed from")
	fs.IntVar(&f.seconds, "seconds", 25, "length of the timed phase; decides how many fixed-size batches run")
	fs.IntVar(&f.trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&f.spans, "spans", "", "with -trace 1, write the recorded spans to this file")
	fs.BoolVar(&f.smoke, "smoke", false, "run every check on one batch at a twentieth of the size and record nothing")
	fs.BoolVar(&f.selfcheck, "selfcheck", false, "run every workload as two sets back to back and compare them with the bounds")
	fs.StringVar(&f.tmpRoot, "tmp", defaultTmpRoot(), "directory for throw-away fleet stores and checkpoint replays")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if f.trace != 0 && f.trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1, not %d", f.trace)
	}
	if f.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, not %d", f.seconds)
	}
	if f.spans != "" && f.trace != 1 {
		return nil, errors.New("-spans needs -trace 1")
	}
	return f, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	f, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	switch {
	case f.selfcheck:
		return selfcheck(ctx, f, stdout, stderr)
	case f.workload == "all":
		_, err := runAll(ctx, f, stdout, stderr)
		return err
	}
	w, err := newWorkload(f.workload, f.options)
	if err != nil {
		return err
	}
	if _, err := os.Stat(f.tmpRoot); errors.Is(err, fs.ErrNotExist) {
		// The workloads create the scratch root on first use and empty it
		// again; removing it fails, and is meant to, only if one of them left
		// something behind.
		defer os.Remove(f.tmpRoot)
	}
	if f.smoke {
		return runSmoke(ctx, w)
	}
	return runOne(ctx, w, f, stdout, stderr)
}

// runOne measures one workload in this process and prints its result line.
func runOne(ctx context.Context, w workload, f *flags, stdout, stderr io.Writer) error {
	env, err := json.Marshal(readEnv())
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: %s seed %d env %s\n", w.name(), f.seed, env)
	var res result
	if f.trace == 1 {
		tr, err := runTraced(ctx, w, f.options)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "bench: %s traced: params hash %016x, %d spans\n", w.name(), tr.hash, len(tr.tracer.spans))
		if f.spans != "" {
			if err := tr.tracer.writeFile(f.spans, w.name()); err != nil {
				return err
			}
		}
		res = result{Correct: tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.metrics}
	} else {
		e, err := runEndToEnd(ctx, w, f.options)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "bench: %s timed phase: %d batches in %.1f s, params hash %016x\n",
			w.name(), e.batches, e.timed.Seconds(), e.hash)
		res = result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runChild runs one workload in a fresh process, so that its set-up is cold
// and its peak RSS — a process-wide high-water mark — is its own.
func runChild(ctx context.Context, name string, f *flags, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(f.seed, 10),
		"-seconds", strconv.Itoa(f.seconds),
		"-trace", strconv.Itoa(f.trace),
		"-tmp", f.tmpRoot,
	}
	if f.spans != "" {
		args = append(args, "-spans", f.spans+"."+name)
	}
	if f.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if f.smoke {
		return &result{Correct: true}, nil
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, strictly one after another, and prints one
// line per workload: its name and its result.
func runAll(ctx context.Context, f *flags, stdout, stderr io.Writer) (map[string]*result, error) {
	all := make(map[string]*result, len(workloadNames))
	for _, name := range workloadNames {
		res, err := runChild(ctx, name, f, stderr)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		all[name] = res
		line, err := json.Marshal(struct {
			Workload string `json:"workload"`
			*result
		}{name, res})
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// selfcheck runs every workload as two full sets back to back and fails if
// the same code disagrees with itself by more than a metric's bound.
func selfcheck(ctx context.Context, f *flags, stdout, stderr io.Writer) error {
	if f.trace == 1 || f.smoke {
		return errors.New("-selfcheck compares end-to-end metrics: it takes neither -trace 1 nor -smoke")
	}
	t0 := time.Now()
	var sets [2]map[string]*result
	for i := range sets {
		fmt.Fprintf(stdout, "set %d\n", i+1)
		var err error
		if sets[i], err = runAll(ctx, f, stdout, stderr); err != nil {
			return err
		}
	}
	var over []string
	for _, name := range workloadNames {
		for _, m := range endToEndMetrics {
			a, b := sets[0][name].Metrics[m.Name].Value, sets[1][name].Metrics[m.Name].Value
			gap := worsening(m, a, b)
			if gap < 0 {
				gap = worsening(m, b, a)
			}
			verdict := "ok"
			if gap > m.Bound {
				verdict = "OVER BOUND"
				over = append(over, name+"/"+m.Name)
			}
			fmt.Fprintf(stdout, "%-17s %-17s %14.6g %14.6g %s  gap %5.2f%%  bound %4.1f%%  %s\n",
				name, m.Name, a, b, m.Unit, 100*gap, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "selfcheck took %.0f s\n", time.Since(t0).Seconds())
	if len(over) > 0 {
		return fmt.Errorf("two sets of the same code differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

// worsening returns by what share of base the metric got worse going from
// base to next; negative when it got better.
func worsening(m metricDef, base, next float64) float64 {
	if m.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}
