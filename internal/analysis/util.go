package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// fileIsTest reports whether the parsed file came from a _test.go file.
func fileIsTest(fset *token.FileSet, f *ast.File) bool {
	name := filepath.Base(fset.Position(f.Package).Filename)
	return strings.HasSuffix(name, "_test.go")
}

// builtinName returns the name of the builtin being called (append, make,
// new, delete, ...), or "" for non-builtin calls. Builtin identifiers resolve
// to *types.Builtin in Uses, not to nil.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// calleeFunc resolves the called function object of a call expression,
// looking through parentheses. It returns nil for builtins, function-typed
// variables it cannot name, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeVar resolves a call through a package-level function-typed variable
// (e.g. the dpbyz facade's `NewGAR = gar.New` aliases) to the variable
// object, or nil.
func calleeVar(info *types.Info, call *ast.CallExpr) *types.Var {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[fun].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[fun.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// qualifiedVarName renders a package-level variable as "pkgpath.Name", or ""
// for non-package-level variables.
func qualifiedVarName(v *types.Var) string {
	if v == nil || v.Pkg() == nil {
		return ""
	}
	if v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isSliceType reports whether t's core type is a slice.
func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isIntegerOrBool reports whether t is an integer or boolean kind (the types
// whose accumulation is order-insensitive bit-for-bit, unlike floats).
func isIntegerOrBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// namedTypeKey renders the named (or alias-resolved) type behind t as
// "pkgpath.Name", dereferencing one pointer level; "" if t is unnamed.
func namedTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// describeStmt renders a short human label for a statement kind, for use in
// diagnostics.
func describeStmt(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
			return "assignment to " + id.Name
		}
		return "assignment"
	case *ast.IncDecStmt:
		return "non-integer accumulation"
	case *ast.ExprStmt:
		return "call with side effects"
	case *ast.ReturnStmt:
		return "return from loop body"
	case *ast.SendStmt:
		return "channel send"
	default:
		return "order-dependent statement"
	}
}

// rootIdent returns the leftmost identifier of a selector/index/star chain
// (e.g. a for a.b[i].c), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
