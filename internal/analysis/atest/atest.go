// Package atest is a miniature analysistest: it runs analyzers over golden
// packages under a testdata/src tree and compares the diagnostics they emit
// against `// want "regex"` annotations in the sources. It plays the role of
// golang.org/x/tools/go/analysis/analysistest for the self-contained
// internal/analysis framework.
//
// Each golden package lives in <testdata>/src/<name> and is loaded with
// analysis.LoadDir, so it may import the real module's packages (the codec,
// the registries) while staying invisible to `go list ./...` builds. An
// expectation annotates the line the diagnostic must land on:
//
//	out = make([]float64, n) // want `calls make`
//	_ = out
//
// The pattern between the quotes is a regexp matched against the diagnostic
// message; both double-quoted ("...") and backquoted (`...`) forms work.
// Multiple want comments on one line each demand a separate diagnostic.
package atest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dpbyz/internal/analysis"
)

// wantRe matches one expectation inside a comment: want "..." or want `...`.
var wantRe = regexp.MustCompile("want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// expectation is one pending // want annotation.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads <testdata>/src/<pkg> for each pkg, applies the analyzers, and
// reports any mismatch between emitted diagnostics and // want annotations
// as test errors. A nil analyzers slice runs the full suite. It is the
// harness of the analyzers' own tests, which are its only callers.
//
//dpbyz:testseam
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runOne(t, filepath.Join(testdata, "src", pkg), analyzers)
		})
	}
}

func runOne(t *testing.T, dir string, analyzers []*analysis.Analyzer) {
	t.Helper()
	m, err := analysis.LoadDir(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	wants, err := collectWants(m)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(m, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		pos := d.Position(m.Fset)
		if w := matchWant(wants, pos.Filename, pos.Line, d.Message); w == nil {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				w.file, w.line, w.pattern)
		}
	}
}

// collectWants scans every comment of every loaded file for expectations.
func collectWants(m *analysis.Module) ([]*expectation, error) {
	var wants []*expectation
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := m.Fset.Position(c.Pos())
					for _, match := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pattern, err := unquoteWant(match[1])
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want %s: %w", pos.Filename, pos.Line, match[1], err)
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want regexp: %w", pos.Filename, pos.Line, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants, nil
}

func unquoteWant(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}

// matchWant consumes and returns the first unmatched expectation on the
// diagnostic's line whose pattern matches the message, or nil.
func matchWant(wants []*expectation, file string, line int, message string) *expectation {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.pattern.MatchString(message) {
			w.matched = true
			return w
		}
	}
	return nil
}
