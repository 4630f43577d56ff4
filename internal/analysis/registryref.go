package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// RegistryRef cross-checks every string literal used as a registry key
// against the registries' registered names, so a typo'd Spec fixture or rule
// name fails lint instead of failing at run time.
var RegistryRef = &Analyzer{
	Name: "registryref",
	Doc: `check string-literal registry keys against the registered names

Extracts the registered GAR, attack, partition, DP-mechanism, model and data-
source names from their registries (map-literal keys in internal/gar,
internal/attack, internal/partition, internal/dp; the materializer's switch
cases in internal/spec) and validates every string literal passed as a
lookup-function key (gar.New, attack.New, partition.New/Split, dp.New and
their dpbyz facade aliases) or written to a Spec reference field
(GARSpec.Name, AttackSpec.Name, PartitionSpec.Name, MechanismSpec.Name,
ModelSpec.Name, DataSpec.Source), in composite literals and in assignments.
Test files are included deliberately: fixture typos are exactly the class
this catches. A fixture that is intentionally unknown (an error-path test)
is waived with //dpbyz:unregistered on its line.`,
	Run: runRegistryRef,
}

// Registry domains.
const (
	domGAR       = "gar rule"
	domAttack    = "attack"
	domPartition = "partitioner"
	domMechanism = "dp mechanism"
	domModel     = "model"
	domData      = "data source"
)

// lookupFuncs maps a lookup function (by types.Func.FullName) to the domain
// of its first string argument.
var lookupFuncs = map[string]string{
	"dpbyz/internal/gar.New":       domGAR,
	"dpbyz/internal/attack.New":    domAttack,
	"dpbyz/internal/partition.New": domPartition,
	"dpbyz/internal/dp.New":        domMechanism,
}

// lookupSplitFuncs are lookup functions whose key argument is not at index 0
// or that take extra leading context; currently all keys are index 0.
var lookupVarAliases = map[string]string{
	// The dpbyz facade re-exports the lookups as package-level function
	// variables; call sites through them get the same checking.
	"dpbyz.NewGAR":    domGAR,
	"dpbyz.NewAttack": domAttack,
}

// specFields maps "pkgpath.TypeName" to the reference field name and domain.
var specFields = map[string]struct {
	field  string
	domain string
}{
	"dpbyz/internal/spec.GARSpec":       {"Name", domGAR},
	"dpbyz/internal/spec.AttackSpec":    {"Name", domAttack},
	"dpbyz/internal/spec.PartitionSpec": {"Name", domPartition},
	"dpbyz/internal/spec.MechanismSpec": {"Name", domMechanism},
	"dpbyz/internal/spec.ModelSpec":     {"Name", domModel},
	"dpbyz/internal/spec.DataSpec":      {"Source", domData},
}

func runRegistryRef(pass *Pass) error {
	waivers := newWaiverIndex(pass.Fset, pass.Files)
	check := func(pos token.Pos, domain, name string) error {
		names, err := pass.Module.RegistryNames(domain)
		if err != nil {
			return err
		}
		for _, n := range names {
			if n == name {
				return nil
			}
		}
		if waivers.allows(pos, waiverUnregistered) {
			return nil
		}
		pass.Reportf(pos, "unknown %s %q (registered: %s)",
			domain, name, strings.Join(names, ", "))
		return nil
	}
	var firstErr error
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if firstErr != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				domain := ""
				if fn := calleeFunc(pass.Info, n); fn != nil {
					domain = lookupFuncs[fn.FullName()]
				} else if v := calleeVar(pass.Info, n); v != nil {
					domain = lookupVarAliases[qualifiedVarName(v)]
				}
				if domain == "" || len(n.Args) == 0 {
					return true
				}
				if name, ok := stringLiteral(n.Args[0]); ok {
					firstErr = check(n.Args[0].Pos(), domain, name)
				}
			case *ast.CompositeLit:
				ref, ok := specFields[namedTypeKey(pass.Info.TypeOf(n))]
				if !ok {
					return true
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != ref.field {
						continue
					}
					if name, ok := stringLiteral(kv.Value); ok {
						firstErr = check(kv.Value.Pos(), ref.domain, name)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					ref, ok := specFields[namedTypeKey(pass.Info.TypeOf(sel.X))]
					if !ok || sel.Sel.Name != ref.field {
						continue
					}
					if name, ok := stringLiteral(n.Rhs[i]); ok {
						firstErr = check(n.Rhs[i].Pos(), ref.domain, name)
					}
				}
			}
			return true
		})
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}

// stringLiteral unquotes e if it is a string basic literal.
func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// registrySources describes where each domain's names live in the module
// tree. Extraction is a pure AST scan, so it works in every mode (full
// module, analysistest) without type-checking the registry package.
var registrySources = []struct {
	domain string
	dir    string // module-relative package dir
	kind   string // "mapvar" or "switch"
	ident  string // map variable name, or function whose switch holds the names
}{
	{domGAR, "internal/gar", "mapvar", "registry"},
	{domAttack, "internal/attack", "mapvar", "registry"},
	{domPartition, "internal/partition", "mapvar", "registry"},
	{domMechanism, "internal/dp", "mapvar", "mechanisms"},
	{domModel, "internal/spec", "switch", "buildModel"},
	{domData, "internal/spec", "switch", "buildDatasets"},
}

// RegistryNames returns the registered names of one domain, extracting and
// caching the full table on first use. An empty extraction is an error, not
// a vacuous pass: if a registry moves, the analyzer must fail loudly rather
// than accept every name.
func (m *Module) RegistryNames(domain string) ([]string, error) {
	if m.registries == nil {
		if m.Dir == "" {
			return nil, fmt.Errorf("registryref: module root unknown; cannot locate registries")
		}
		m.registries = map[string][]string{}
		for _, src := range registrySources {
			names, err := extractRegistryNames(filepath.Join(m.Dir, src.dir), src.kind, src.ident)
			if err != nil {
				return nil, err
			}
			m.registries[src.domain] = names
		}
	}
	names := m.registries[domain]
	if len(names) == 0 {
		return nil, fmt.Errorf("registryref: extracted no %s names; registry extraction is stale — update registrySources in internal/analysis/registryref.go", domain)
	}
	return names, nil
}

// extractRegistryNames parses the non-test files of one package directory and
// collects either the string keys of the named map-literal variable or the
// string case labels of the switch inside the named function.
func extractRegistryNames(dir, kind, ident string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registryref: read registry package %s: %w", dir, err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("registryref: parse %s: %w", name, err)
		}
		switch kind {
		case "mapvar":
			names = append(names, mapVarKeys(f, ident)...)
		case "switch":
			names = append(names, switchCaseStrings(f, ident)...)
		}
	}
	sort.Strings(names)
	return names, nil
}

// mapVarKeys returns the string keys of `var ident = map[string]...{...}`.
func mapVarKeys(f *ast.File, ident string) []string {
	var keys []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != ident || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, el := range lit.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if s, ok := stringLiteral(kv.Key); ok {
						keys = append(keys, s)
					}
				}
			}
		}
	}
	return keys
}

// switchCaseStrings returns the string case labels of every switch statement
// inside the named function or method.
func switchCaseStrings(f *ast.File, funcName string) []string {
	var names []string
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != funcName || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if s, ok := stringLiteral(e); ok {
					names = append(names, s)
				}
			}
			return true
		})
	}
	return names
}
