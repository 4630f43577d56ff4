package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked analysis unit: a module package (optionally
// including its in-package test files) or an external (_test) test package.
type Package struct {
	// ImportPath is the package's import path; external test packages get
	// the conventional "path_test" suffix.
	ImportPath string
	// Name is the package name from the package clauses.
	Name string
	// Dir is the package directory on disk.
	Dir string
	// Files holds the parsed files of the unit.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the checker's fact tables for Files.
	Info *types.Info
}

// A Module is a set of loaded packages sharing one FileSet plus the lazily
// built module-wide directive and registry indexes the analyzers consult.
type Module struct {
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Dir is the module root (the directory holding go.mod); empty for
	// synthetic test modules.
	Dir string
	// Packages are the loaded analysis units.
	Packages []*Package

	// scratchFuncs indexes //dpbyz:scratch-annotated functions by their
	// types.Func.FullName (e.g. "dpbyz/internal/cluster.getScratch").
	scratchFuncs map[string]bool
	// carrierTypes indexes //dpbyz:scratch-annotated named types by
	// "pkgpath.Name".
	carrierTypes map[string]bool
	// registries caches the extracted registry-name table; see registryref.
	registries map[string][]string
	// uses caches the non-test use index; see testonly.
	uses *useIndex
	// standalone marks a LoadDir module: its one package is the whole
	// program the module-wide indexes see.
	standalone bool
}

// LoadConfig tunes Load.
type LoadConfig struct {
	// Dir is the working directory for package pattern resolution (the
	// module root or any directory within it).
	Dir string
	// Tests includes in-package _test.go files in each unit and adds the
	// external test packages as separate units.
	Tests bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Dir string }
	Error        *struct{ Err string }
}

// Load enumerates patterns with `go list`, parses and type-checks every
// matched package against the source importer, and returns the module. It
// needs no network: the module has no external dependencies and the standard
// library is type-checked from GOROOT source.
func Load(cfg LoadConfig, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(cfg.Dir, patterns)
	if err != nil {
		return nil, err
	}
	m := &Module{Fset: token.NewFileSet()}
	imp := importer.ForCompiler(m.Fset, "source", nil)
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if m.Dir == "" && lp.Module != nil {
			m.Dir = lp.Module.Dir
		}
		units := [][]string{append(append([]string{}, lp.GoFiles...), lp.CgoFiles...)}
		paths := []string{lp.ImportPath}
		if cfg.Tests {
			units[0] = append(units[0], lp.TestGoFiles...)
			if len(lp.XTestGoFiles) > 0 {
				units = append(units, lp.XTestGoFiles)
				paths = append(paths, lp.ImportPath+"_test")
			}
		}
		for i, names := range units {
			if len(names) == 0 {
				continue
			}
			files, err := parseFiles(m.Fset, lp.Dir, names)
			if err != nil {
				return nil, err
			}
			pkg, err := checkFiles(m.Fset, paths[i], files, imp)
			if err != nil {
				return nil, err
			}
			pkg.Dir = lp.Dir
			m.Packages = append(m.Packages, pkg)
		}
	}
	return m, nil
}

// LoadDir parses and type-checks the single package rooted at dir — every
// non-test .go file, outside of `go list`'s view. The atest harness uses it
// to load testdata packages, which go list deliberately ignores. Imports
// (including this module's own packages) resolve through the source importer
// exactly as in Load; Module.Dir is the enclosing module root, so registryref
// finds the real registries.
func LoadDir(dir string) (*Module, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: read %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	m := &Module{Fset: token.NewFileSet(), Dir: FindModuleRoot(dir), standalone: true}
	files, err := parseFiles(m.Fset, dir, names)
	if err != nil {
		return nil, err
	}
	imp := importer.ForCompiler(m.Fset, "source", nil)
	pkg, err := checkFiles(m.Fset, filepath.Base(dir), files, imp)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	m.Packages = append(m.Packages, pkg)
	return m, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod, returning "" if none is found. Used by tests that know a package
// directory but not the module root.
func FindModuleRoot(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// goList runs `go list -json` for the patterns and decodes the package metas.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// parseFiles parses the named files (relative to dir) with comments retained,
// since the directive and waiver comments are the analyzers' inputs.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkFiles type-checks one unit. Type errors fail the load: the analyzers
// assume well-typed input, and the module's own build gate guarantees it.
func checkFiles(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(errs) > 0 {
		const max = 8
		msgs := make([]string, 0, max+1)
		for i, e := range errs {
			if i == max {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-max))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-check %s:\n\t%s", importPath, strings.Join(msgs, "\n\t"))
	}
	name := importPath
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{ImportPath: importPath, Name: name, Files: files, Types: tpkg, Info: info}, nil
}

// ScratchFuncs returns the module-wide index of //dpbyz:scratch-annotated
// functions, keyed by types.Func.FullName.
func (m *Module) ScratchFuncs() map[string]bool {
	m.buildScratchIndex()
	return m.scratchFuncs
}

// CarrierTypes returns the module-wide index of //dpbyz:scratch-annotated
// named types, keyed by "pkgpath.Name".
func (m *Module) CarrierTypes() map[string]bool {
	m.buildScratchIndex()
	return m.carrierTypes
}

func (m *Module) buildScratchIndex() {
	if m.scratchFuncs != nil {
		return
	}
	m.scratchFuncs = map[string]bool{}
	m.carrierTypes = map[string]bool{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !hasDirective(d.Doc, directiveScratch) {
						continue
					}
					if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						m.scratchFuncs[obj.FullName()] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if hasDirective(ts.Doc, directiveScratch) || hasDirective(ts.Comment, directiveScratch) ||
							(len(d.Specs) == 1 && hasDirective(d.Doc, directiveScratch)) {
							m.carrierTypes[pkg.Types.Path()+"."+ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
}
