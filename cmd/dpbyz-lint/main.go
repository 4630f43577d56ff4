// Command dpbyz-lint runs the dpbyz analyzer suite (internal/analysis) over
// module packages and reports contract violations: nondeterminism in
// //dpbyz:deterministic packages, allocations in //dpbyz:hotpath functions,
// pooled-scratch aliasing, and unknown registry names.
//
// Use (this is what CI runs):
//
//	go run ./cmd/dpbyz-lint ./...            # whole module, all analyzers
//	go run ./cmd/dpbyz-lint -run detlint,scratchalias ./internal/simulate
//	go run ./cmd/dpbyz-lint -doc hotpathalloc
//
// Diagnostics print as path:line:col: analyzer: message. Exit status is 0 for
// a clean tree, 1 when diagnostics were reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dpbyz/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpbyz-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		docName = fs.String("doc", "", "print the named analyzer's documentation and exit")
		noTests = fs.Bool("notests", false, "exclude _test.go files from loading (registryref normally checks test fixtures too)")
		dir     = fs.String("C", "", "change to `dir` before resolving package patterns")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *docName != "" {
		a := analysis.ByName(*docName)
		if a == nil {
			fmt.Fprintf(stderr, "dpbyz-lint: unknown analyzer %q (have %s)\n", *docName, analyzerNames())
			return 2
		}
		fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		return 0
	}

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintf(stderr, "dpbyz-lint: %v\n", err)
		return 2
	}

	m, err := analysis.Load(analysis.LoadConfig{Dir: *dir, Tests: !*noTests}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "dpbyz-lint: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(m, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "dpbyz-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s: %s\n", d.Position(m.Fset), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "dpbyz-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func analyzerNames() string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return nil, nil // nil means all
	}
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("empty -run list")
	}
	return selected, nil
}
