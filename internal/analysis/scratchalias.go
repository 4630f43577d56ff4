package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchAlias tracks pooled scratch memory and reports when it can escape
// into results — the exact bug class of the PR-2 RunWorker regression, where
// a decode-scratch buffer was stored into WorkerResult.FinalParams and later
// recycled under the caller.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Doc: `report pooled scratch buffers escaping into results

Tracks, within each function, values that alias reused scratch memory:
results of (*sync.Pool).Get, results of //dpbyz:scratch-annotated provider
functions (free-list getters, codec decode buffers), and reads from fields of
//dpbyz:scratch-annotated carrier types (reused decode targets). Taint flows
through assignment, slicing, indexing, field access, type assertion and
append. A tainted value stored into a struct field or composite literal of a
non-carrier type, returned, or sent on a channel is reported: the scratch
will be recycled under whoever received the alias — copy out instead.

Provider functions themselves are exempt (returning scratch is their job);
intentional retention a human has reviewed is waived with //dpbyz:allowalias.
Test files are skipped: regression tests poison and retain scratch on
purpose.`,
	Run: runScratchAlias,
}

func runScratchAlias(pass *Pass) error {
	scratchFuncs := pass.Module.ScratchFuncs()
	carriers := pass.Module.CarrierTypes()
	waivers := newWaiverIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if fileIsTest(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Providers return scratch by design.
			if hasDirective(fd.Doc, directiveScratch) {
				continue
			}
			checkScratchFunc(pass, scratchFuncs, carriers, waivers, fd)
		}
	}
	return nil
}

// scratchTracker is the per-function taint state.
type scratchTracker struct {
	pass     *Pass
	info     *types.Info
	scratch  map[string]bool // provider funcs by FullName
	carriers map[string]bool // carrier types by pkgpath.Name
	tainted  map[types.Object]bool
}

func checkScratchFunc(pass *Pass, scratchFuncs, carriers map[string]bool,
	waivers *waiverIndex, fd *ast.FuncDecl) {
	t := &scratchTracker{
		pass:     pass,
		info:     pass.Info,
		scratch:  scratchFuncs,
		carriers: carriers,
		tainted:  map[types.Object]bool{},
	}
	// Propagate taint through assignments to a fixpoint. The taint set only
	// grows, so iteration count is bounded by the number of variables.
	for {
		before := len(t.tainted)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				t.propagateAssign(n)
			case *ast.RangeStmt:
				t.propagateRange(n)
			}
			return true
		})
		if len(t.tainted) == before {
			break
		}
	}

	report := func(pos token.Pos, format string, args ...any) {
		if waivers.allows(pos, waiverAllowAlias) {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if t.taintedExpr(res) {
					report(res.Pos(),
						"returning pooled scratch (will be recycled under the caller); copy out with append([]T(nil), s...) or into a caller-owned buffer")
				}
			}
		case *ast.SendStmt:
			if t.taintedExpr(n.Value) {
				report(n.Value.Pos(),
					"sending pooled scratch on a channel; the receiver outlives the buffer's reuse window — copy out first")
			}
		case *ast.AssignStmt:
			t.checkStores(n, report)
		case *ast.CompositeLit:
			t.checkCompositeLit(n, report)
		}
		return true
	})
}

// propagateAssign taints assignment targets whose right-hand side aliases
// scratch.
func (t *scratchTracker) propagateAssign(a *ast.AssignStmt) {
	if len(a.Lhs) == len(a.Rhs) {
		for i, rhs := range a.Rhs {
			if !t.taintedExpr(rhs) {
				continue
			}
			if id, ok := ast.Unparen(a.Lhs[i]).(*ast.Ident); ok {
				t.taintIdent(id)
			}
		}
		return
	}
	// Multi-value form x, err := provider(): taint the alias-capable targets.
	if len(a.Rhs) == 1 && t.taintedExpr(a.Rhs[0]) {
		for _, lhs := range a.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && aliasCapable(t.info.TypeOf(id)) {
				t.taintIdent(id)
			}
		}
	}
}

// propagateRange taints the value (and key) variables of a range over a
// tainted container.
func (t *scratchTracker) propagateRange(r *ast.RangeStmt) {
	if !t.taintedExpr(r.X) {
		return
	}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if e == nil {
			continue
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && aliasCapable(t.info.TypeOf(id)) {
			t.taintIdent(id)
		}
	}
}

func (t *scratchTracker) taintIdent(id *ast.Ident) {
	if id.Name == "_" {
		return
	}
	if obj := identObj(t.info, id); obj != nil {
		t.tainted[obj] = true
	}
}

// taintedExpr reports whether e aliases pooled scratch. A value whose static
// type cannot hold a reference (an int Step read out of a carrier message,
// say) is a copy, never an alias.
func (t *scratchTracker) taintedExpr(e ast.Expr) bool {
	if typ := t.info.TypeOf(e); typ != nil && !aliasCapable(typ) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(t.info, e)
		return obj != nil && t.tainted[obj]
	case *ast.SelectorExpr:
		// Reading a field of a carrier type yields scratch-backed memory.
		if t.isCarrier(t.info.TypeOf(e.X)) {
			return true
		}
		return t.taintedExpr(e.X)
	case *ast.IndexExpr:
		return t.taintedExpr(e.X)
	case *ast.SliceExpr:
		return t.taintedExpr(e.X)
	case *ast.StarExpr:
		return t.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return t.taintedExpr(e.X)
	case *ast.TypeAssertExpr:
		return t.taintedExpr(e.X)
	case *ast.CallExpr:
		return t.taintedCall(e)
	}
	return false
}

// taintedCall reports whether a call yields scratch: a pool get, an annotated
// provider, a conversion of tainted memory, or an append onto tainted memory.
func (t *scratchTracker) taintedCall(call *ast.CallExpr) bool {
	// Conversion retains the backing array for slice types.
	if tv, ok := t.info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && isSliceType(tv.Type) && t.taintedExpr(call.Args[0])
	}
	// append(tainted, ...) may return the same backing array;
	// append(nil, tainted...) and append(fresh, tainted...) copy.
	if builtinName(t.info, call) == "append" {
		return len(call.Args) > 0 && t.taintedExpr(call.Args[0])
	}
	fn := calleeFunc(t.info, call)
	if fn == nil {
		return false
	}
	name := fn.FullName()
	return name == "(*sync.Pool).Get" || t.scratch[name]
}

// isCarrier reports whether typ (after pointer deref) is an annotated scratch
// carrier.
func (t *scratchTracker) isCarrier(typ types.Type) bool {
	key := namedTypeKey(typ)
	return key != "" && t.carriers[key]
}

// checkStores reports tainted values stored into fields or elements of
// non-carrier, non-tainted containers — the alias escapes into a structure
// that outlives the scratch reuse window.
func (t *scratchTracker) checkStores(a *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, rhs := range a.Rhs {
		if !t.taintedExpr(rhs) {
			continue
		}
		switch lhs := ast.Unparen(a.Lhs[i]).(type) {
		case *ast.SelectorExpr:
			if t.isCarrier(t.info.TypeOf(lhs.X)) || t.taintedExpr(lhs.X) {
				continue
			}
			report(a.Pos(),
				"storing pooled scratch into field %s of a non-carrier struct; the buffer will be recycled while the struct lives — copy out, or mark the type //dpbyz:scratch if it is a reuse carrier",
				lhs.Sel.Name)
		case *ast.IndexExpr:
			if t.taintedExpr(lhs.X) || t.isCarrier(t.info.TypeOf(lhs.X)) {
				continue
			}
			report(a.Pos(),
				"storing pooled scratch into a container element; the buffer will be recycled while the container lives — copy out first")
		}
	}
}

// checkCompositeLit reports tainted values packed into composite literals of
// non-carrier types (e.g. Result{Params: scratch}).
func (t *scratchTracker) checkCompositeLit(lit *ast.CompositeLit, report func(token.Pos, string, ...any)) {
	if t.isCarrier(t.info.TypeOf(lit)) {
		return
	}
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if t.taintedExpr(val) {
			report(val.Pos(),
				"composite literal captures pooled scratch; the buffer will be recycled while the value lives — copy out first")
		}
	}
}

// aliasCapable reports whether a value of type t can alias scratch memory
// (slices, pointers, maps, interfaces, structs and channels can; plain
// scalars and error values cannot — so `buf, err := provider()` taints buf
// but not err).
func aliasCapable(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok &&
		named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Struct, *types.Chan, *types.Interface:
		return true
	}
	return false
}
