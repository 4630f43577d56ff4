package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// TestOnly reports code that only tests call: a function or method declared
// in a non-test file of an internal/ package that no non-test file of the
// module references.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: `report internal/ functions and methods that only tests reference

Every function and method declared in a non-test file of an internal/ package
must be referenced from a non-test file of the module; otherwise it ships for
its tests alone. References come from one module-wide index of
types.Info.Uses, compared through types.Func.Origin so that a generic
instance counts for its declaration; a function's calls to itself do not
count. A method also counts as used when an interface type visible in the
module (declared there or in an imported package) has a method of that name.
init is exempt. A partial load indexes a load of the whole module, so it
reports nothing a full run would not. A reviewed seam that tests share is
kept by //dpbyz:testseam in its doc comment, next to the reason it stays.`,
	Run: runTestOnly,
}

func runTestOnly(pass *Pass) error {
	// A standalone package (an analyzer fixture) stands for an internal one.
	if !pass.Module.standalone && !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	idx, err := pass.Module.testOnlyIndex()
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		if fileIsTest(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || hasDirective(fd.Doc, directiveTestSeam) ||
				fd.Recv != nil && idx.ifaceMethods[fd.Name.Name] {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || idx.refs[funcKey(pass.Fset, fn)] {
				continue
			}
			name := fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = "(" + types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)) + ")." + name
			}
			pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test file of the module: delete it, move it into a _test.go file, or keep a reviewed seam with //dpbyz:testseam", name)
		}
	}
	return nil
}

// useIndex is the module-wide table the testonly analyzer consults.
type useIndex struct {
	// refs holds the funcKey of every function or method that a non-test
	// file of the module references.
	refs map[string]bool
	// ifaceMethods holds the method names of every interface type visible
	// in the module.
	ifaceMethods map[string]bool
}

// funcKey names a function by its declaring position, so that the copies of
// one declaration made by separate type-checks (a unit and the importer's
// view of it, or a second load of the module) share one key.
func funcKey(fset *token.FileSet, fn *types.Func) string {
	p := fset.Position(fn.Origin().Pos())
	return p.Filename + ":" + strconv.Itoa(p.Offset)
}

// testOnlyIndex builds the use index once. A standalone module indexes its
// own package; a load that misses a package of the module indexes a fresh
// load of the whole module instead.
func (m *Module) testOnlyIndex() (*useIndex, error) {
	if m.uses != nil {
		return m.uses, nil
	}
	src := m
	if !m.standalone {
		listed, err := goList(m.Dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		loaded := map[string]bool{}
		for _, pkg := range m.Packages {
			loaded[pkg.ImportPath] = true
		}
		for _, lp := range listed {
			if !loaded[lp.ImportPath] {
				if src, err = Load(LoadConfig{Dir: m.Dir}, "./..."); err != nil {
					return nil, fmt.Errorf("testonly: index the whole module: %w", err)
				}
				break
			}
		}
	}
	idx := &useIndex{refs: map[string]bool{}, ifaceMethods: map[string]bool{"Error": true}}
	addMethods := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			idx.ifaceMethods[it.Method(i).Name()] = true
		}
	}
	seen := map[*types.Package]bool{}
	var addImported func(p *types.Package)
	addImported = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if it, ok := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					addMethods(it)
				}
			}
			addImported(imp)
		}
	}
	for _, pkg := range src.Packages {
		for _, f := range pkg.Files {
			if fileIsTest(src.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				self := "" // a function's calls to itself do not keep it
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(src.Fset, fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
							if key := funcKey(src.Fset, fn); key != self {
								idx.refs[key] = true
							}
						}
					case *ast.InterfaceType:
						if it, ok := pkg.Info.TypeOf(n).(*types.Interface); ok {
							addMethods(it)
						}
					}
					return true
				})
			}
		}
		addImported(pkg.Types)
	}
	m.uses = idx
	return idx, nil
}
