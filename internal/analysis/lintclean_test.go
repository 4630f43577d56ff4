package analysis_test

import (
	"testing"

	"dpbyz/internal/analysis"
)

// TestLintClean runs the full analyzer suite over the whole module, test
// files included, and fails on any diagnostic. It is the tier-1 mirror of
// the CI `go run ./cmd/dpbyz-lint ./...` gate: the tree must stay lint-clean,
// with every intentional exception carrying its reviewed waiver.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short mode")
	}
	root := analysis.FindModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found")
	}
	m, err := analysis.Load(analysis.LoadConfig{Dir: root, Tests: true}, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := analysis.RunAnalyzers(m, nil)
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Position(m.Fset), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add the reviewed waiver directives (see internal/analysis doc)")
	}
}

// TestTestOnlyPartialLoad lints one package the way `dpbyz-lint
// ./internal/gar` does. Other packages call gar's API, and the load does
// not hold them, so testonly is silent only if it indexes the whole module.
func TestTestOnlyPartialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short mode")
	}
	root := analysis.FindModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found")
	}
	m, err := analysis.Load(analysis.LoadConfig{Dir: root, Tests: true}, "./internal/gar")
	if err != nil {
		t.Fatalf("load gar: %v", err)
	}
	diags, err := analysis.RunAnalyzers(m, []*analysis.Analyzer{analysis.TestOnly})
	if err != nil {
		t.Fatalf("run testonly: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Position(m.Fset), d.Analyzer, d.Message)
	}
}
