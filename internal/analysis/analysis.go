// Package analysis is dpbyz's static-analysis suite: five analyzers that
// mechanically enforce the repo's cross-cutting code contracts — bit-identical
// determinism, zero-allocation steady-state hot paths, pooled-scratch
// aliasing discipline, registry-name integrity, and no internal/ code that
// only tests call. The analyzers run over the whole module via
// cmd/dpbyz-lint and programmatically in TestLintClean.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer / Pass / Diagnostic) but is self-contained on the standard
// library: packages are enumerated with `go list -json`, parsed with go/parser
// and type-checked with go/types against the source importer, so the suite
// builds and runs with no module dependencies at all.
//
// Contracts are declared in source with dpbyz directive comments:
//
//	//dpbyz:deterministic   (package doc)   the package's results must be a
//	                                        pure function of its inputs —
//	                                        checked by detlint
//	//dpbyz:hotpath         (func doc)      the function is a steady-state hot
//	                                        path and must not allocate —
//	                                        checked by hotpathalloc
//	//dpbyz:scratch         (func/type doc) the function returns pooled
//	                                        scratch memory / the type is a
//	                                        reused scratch carrier — tracked
//	                                        by scratchalias
//
// and relaxed, where a human has reviewed the construct, with inline waivers
// (//dpbyz:orderedmap, //dpbyz:wallclock, //dpbyz:allowalloc,
// //dpbyz:allowalias, //dpbyz:unregistered) that each analyzer honours on
// the flagged line, and with //dpbyz:testseam in the doc comment of a
// function that testonly would otherwise report as called only by tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could be rebased onto
// the real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph help text.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package plus
// module-wide context (directive indexes, registry names).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed files (including in-package test
	// files when the loader was asked for them).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
	// Module indexes the surrounding module: sibling packages, scratch
	// directives and registry names. Never nil.
	Module *Module

	report func(Diagnostic)
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Position resolves the diagnostic's position against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// All returns the five dpbyz analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, HotPathAlloc, ScratchAlias, RegistryRef, TestOnly}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers executes each analyzer over each package of the module and
// returns all diagnostics sorted by position. A nil analyzer list means All.
func RunAnalyzers(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	if analyzers == nil {
		analyzers = All()
	}
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     m.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Module:   m,
			}
			pass.report = func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := m.Fset.Position(diags[i].Pos), m.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
