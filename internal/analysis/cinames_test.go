package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dpbyz/internal/analysis"
)

var (
	ciNameFlag = regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`)
	ciPkgArg   = regexp.MustCompile(`(?:^|\s)\./[\w./-]*`)
	ciPlainAlt = regexp.MustCompile(`^\w+$`)
)

// unresolvedCINames scans a workflow for `go test … -run '<a|b|…>' ./pkg…`
// (and -fuzz) lines and returns one message per alternative that no
// `func <alternative>…` in those packages' _test.go files matches by prefix.
// `go test -run` with a name that matches nothing exits 0, so a renamed or
// deleted test would otherwise silently drop out of CI. '^$' is exempt.
func unresolvedCINames(root, workflow string) []string {
	var missing []string
	for n, line := range strings.Split(workflow, "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var alts []string
		for _, m := range ciNameFlag.FindAllStringSubmatch(line, -1) {
			if m[1] != "^$" {
				alts = append(alts, strings.Split(m[1], "|")...)
			}
		}
		if len(alts) == 0 {
			continue
		}
		var src strings.Builder
		for _, pkg := range ciPkgArg.FindAllString(line, -1) {
			dir, recursive := strings.CutSuffix(strings.TrimSpace(pkg), "/...")
			dir = filepath.Join(root, dir)
			_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && !recursive && path != dir {
					return fs.SkipDir
				}
				if strings.HasSuffix(path, "_test.go") {
					b, _ := os.ReadFile(path)
					src.Write(b)
				}
				return nil
			})
		}
		for _, alt := range alts {
			if !ciPlainAlt.MatchString(alt) {
				missing = append(missing, fmt.Sprintf("ci.yml:%d: alternative %q is not a plain name; this check cannot resolve it", n+1, alt))
			} else if !strings.Contains(src.String(), "func "+alt) {
				missing = append(missing, fmt.Sprintf("ci.yml:%d: no test function starts with %q in the packages of: %s", n+1, alt, strings.TrimSpace(line)))
			}
		}
	}
	return missing
}

// TestCIRunNamesResolve keeps the hand-picked `-run` lines of the CI workflow
// pointing at tests that exist.
func TestCIRunNamesResolve(t *testing.T) {
	root := analysis.FindModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found")
	}
	workflow, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if !ciNameFlag.Match(workflow) {
		t.Fatal("no -run lines found in ci.yml: the scan is broken")
	}
	for _, msg := range unresolvedCINames(root, string(workflow)) {
		t.Error(msg)
	}
	// The check must bite: one misspelt name beside a good one is reported,
	// and only it.
	probe := "go test -race -count=1 -run 'TestLintClean|TestLintCleen' ./internal/analysis"
	if got := unresolvedCINames(root, probe); len(got) != 1 || !strings.Contains(got[0], "TestLintCleen") {
		t.Errorf("misspelt name not reported exactly once: %q", got)
	}
}
