package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Detlint enforces the //dpbyz:deterministic package contract: results must
// be bit-identical functions of the inputs at every parallelism width, so the
// analyzer forbids the module's known nondeterminism sources.
var Detlint = &Analyzer{
	Name: "detlint",
	Doc: `forbid nondeterminism sources in //dpbyz:deterministic packages

Flags, in packages whose package comment carries //dpbyz:deterministic:
global math/rand use (import the seeded dpbyz/internal/randx instead);
wall-clock reads (time.Now/Since/Until) unless waived //dpbyz:wallclock as
telemetry-only; range over a map whose iteration can reach returned or
accumulated state (collect-then-sort and commutative integer/boolean or
map-to-map updates are recognized as order-insensitive, anything else needs a
//dpbyz:orderedmap review waiver); and goroutines that write captured
variables outside the scheduler's ordered-merge idiom (disjoint slice-index
writes, mutex-held sections and channel sends are fine).

Test files are exempt: the contract covers what the package computes, not how
tests probe it.`,
	Run: runDetlint,
}

// wallClockFuncs are the time package reads that leak wall-clock state into
// an otherwise deterministic computation.
var wallClockFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

func runDetlint(pass *Pass) error {
	if !packageIsDeterministic(pass.Files) {
		return nil
	}
	waivers := newWaiverIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if fileIsTest(pass.Fset, f) {
			continue
		}
		checkRandImports(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedVars(pass.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkWallClock(pass, waivers, n)
				case *ast.RangeStmt:
					checkMapRange(pass, waivers, sorted, n)
				case *ast.GoStmt:
					checkGoroutineWrites(pass, waivers, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkRandImports flags any import of the globally seeded math/rand
// packages; deterministic code must draw from explicit randx streams.
func checkRandImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		switch imp.Path.Value {
		case `"math/rand"`, `"math/rand/v2"`:
			pass.Reportf(imp.Pos(),
				"deterministic package imports %s; use dpbyz/internal/randx streams instead",
				imp.Path.Value)
		}
	}
}

// checkWallClock flags time.Now/Since/Until calls without a //dpbyz:wallclock
// waiver.
func checkWallClock(pass *Pass, waivers *waiverIndex, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !wallClockFuncs[fn.FullName()] {
		return
	}
	if waivers.allows(call.Pos(), waiverWallClock) {
		return
	}
	pass.Reportf(call.Pos(),
		"wall-clock read %s in deterministic package; results must not depend on real time (waive telemetry-only reads with //dpbyz:wallclock)",
		fn.FullName())
}

// sortedVars collects the variables that are passed to a sort (sort.Strings,
// sort.Slice, slices.Sort, ...) anywhere in the body: appending map keys into
// such a variable is the canonical deterministic listing idiom.
func sortedVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// checkMapRange flags map iterations whose body is not provably
// order-insensitive.
func checkMapRange(pass *Pass, waivers *waiverIndex, sorted map[types.Object]bool, rng *ast.RangeStmt) {
	if !isMapType(pass.Info.TypeOf(rng.X)) {
		return
	}
	if waivers.allows(rng.Pos(), waiverOrderedMap) {
		return
	}
	if bad := firstOrderSensitiveStmt(pass.Info, sorted, rng.Body.List); bad != nil {
		pass.Reportf(rng.Pos(),
			"map iteration order can reach results (%s); sort the keys first, restructure, or review and waive with //dpbyz:orderedmap",
			describeStmt(bad))
	}
}

// firstOrderSensitiveStmt returns the first statement of list whose effect
// depends on iteration order, or nil if every statement is recognized as
// order-insensitive: map writes, delete, integer/boolean accumulation,
// boolean-literal latches, appends into later-sorted variables, and control
// flow recursing into those.
func firstOrderSensitiveStmt(info *types.Info, sorted map[types.Object]bool, list []ast.Stmt) ast.Stmt {
	for _, s := range list {
		if bad := orderSensitiveStmt(info, sorted, s); bad != nil {
			return bad
		}
	}
	return nil
}

func orderSensitiveStmt(info *types.Info, sorted map[types.Object]bool, s ast.Stmt) ast.Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.AssignStmt:
		if orderInsensitiveAssign(info, sorted, s) {
			return nil
		}
		return s
	case *ast.IncDecStmt:
		if isIntegerOrBool(info.TypeOf(s.X)) {
			return nil
		}
		return s
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if builtinName(info, call) == "delete" {
				return nil
			}
		}
		return s
	case *ast.IfStmt:
		if s.Init != nil {
			if bad := orderSensitiveStmt(info, sorted, s.Init); bad != nil {
				return bad
			}
		}
		if bad := firstOrderSensitiveStmt(info, sorted, s.Body.List); bad != nil {
			return bad
		}
		return orderSensitiveStmt(info, sorted, s.Else)
	case *ast.BlockStmt:
		return firstOrderSensitiveStmt(info, sorted, s.List)
	case *ast.RangeStmt:
		// Nested iteration over the map value: same rules apply to the body.
		return firstOrderSensitiveStmt(info, sorted, s.Body.List)
	case *ast.ForStmt:
		return firstOrderSensitiveStmt(info, sorted, s.Body.List)
	case *ast.BranchStmt, *ast.EmptyStmt:
		return nil
	default:
		return s
	}
}

// orderInsensitiveAssign recognizes the assignment shapes whose final effect
// is independent of map iteration order.
func orderInsensitiveAssign(info *types.Info, sorted map[types.Object]bool, a *ast.AssignStmt) bool {
	// Compound integer/boolean accumulation: sum += v, mask |= v, ...
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		return len(a.Lhs) == 1 && isIntegerOrBool(info.TypeOf(a.Lhs[0]))
	case token.ASSIGN, token.DEFINE:
	default:
		return false
	}
	for i, lhs := range a.Lhs {
		lhs = ast.Unparen(lhs)
		// Writes into another map are keyed, not ordered.
		if idx, ok := lhs.(*ast.IndexExpr); ok && isMapType(info.TypeOf(idx.X)) {
			continue
		}
		var rhs ast.Expr
		if len(a.Rhs) == len(a.Lhs) {
			rhs = ast.Unparen(a.Rhs[i])
		}
		// Boolean-literal latch: found = true.
		if id, ok := lhs.(*ast.Ident); ok && rhs != nil {
			if rid, ok := rhs.(*ast.Ident); ok && (rid.Name == "true" || rid.Name == "false") &&
				isIntegerOrBool(info.TypeOf(id)) {
				continue
			}
			// Collect-then-sort: keys = append(keys, k) with keys sorted later.
			if call, ok := rhs.(*ast.CallExpr); ok {
				if builtinName(info, call) == "append" && len(call.Args) > 0 {
					if arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok &&
						arg0.Name == id.Name && sorted[identObj(info, id)] {
						continue
					}
				}
			}
		}
		return false
	}
	return true
}

// checkGoroutineWrites flags goroutine function literals that assign to
// variables captured from the enclosing function, except through the
// ordered-merge idiom (each goroutine owns disjoint slice indices) or under a
// mutex.
func checkGoroutineWrites(pass *Pass, waivers *waiverIndex, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	locks := mutexSpans(pass.Info, lit.Body)
	report := func(pos token.Pos, what string) {
		if waivers.allows(pos, waiverOrderedMap) {
			return
		}
		pass.Reportf(pos,
			"goroutine writes captured %s outside the ordered-merge idiom; give each goroutine a disjoint slice index, use a channel, or hold a mutex",
			what)
	}
	check := func(lhs ast.Expr, pos token.Pos) {
		lhs = ast.Unparen(lhs)
		switch x := lhs.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return
			}
			if obj := identObj(pass.Info, x); capturedVar(obj, lit) && !heldByMutex(locks, pos) {
				report(pos, "variable "+x.Name)
			}
		case *ast.IndexExpr:
			root := rootIdent(x.X)
			if root == nil {
				return
			}
			obj := identObj(pass.Info, root)
			if !capturedVar(obj, lit) || heldByMutex(locks, pos) {
				return
			}
			// results[i] = v into a captured slice is the ordered-merge idiom;
			// concurrent map writes never are.
			if isMapType(pass.Info.TypeOf(x.X)) {
				report(pos, "map entry via "+root.Name)
			}
		case *ast.SelectorExpr, *ast.StarExpr:
			root := rootIdent(lhs)
			if root == nil {
				return
			}
			if obj := identObj(pass.Info, root); capturedVar(obj, lit) && !heldByMutex(locks, pos) {
				report(pos, "state via "+root.Name)
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			check(n.X, n.Pos())
		}
		return true
	})
}

// capturedVar reports whether obj is a variable declared outside the function
// literal (a captured local or a package-level variable).
func capturedVar(obj types.Object, lit *ast.FuncLit) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// mutexSpan records one Lock/Unlock call position on a sync mutex.
type mutexSpan struct {
	pos    token.Pos
	unlock bool
}

// mutexSpans collects the Lock/Unlock (and RLock/RUnlock) calls in body, in
// source order. Deferred unlocks run at function exit, so they are recorded
// at the body's end rather than at their textual position.
func mutexSpans(info *types.Info, body *ast.BlockStmt) []mutexSpan {
	var spans []mutexSpan
	classify := func(call *ast.CallExpr) (isLock, isUnlock bool) {
		fn := calleeFunc(info, call)
		if fn == nil {
			return false, false
		}
		switch fn.FullName() {
		case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
			return true, false
		case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
			return false, true
		}
		return false, false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if _, unlock := classify(d.Call); unlock {
				spans = append(spans, mutexSpan{pos: body.End(), unlock: true})
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch lock, unlock := classify(call); {
		case lock:
			spans = append(spans, mutexSpan{pos: call.Pos()})
		case unlock:
			spans = append(spans, mutexSpan{pos: call.Pos(), unlock: true})
		}
		return true
	})
	sort.Slice(spans, func(i, j int) bool { return spans[i].pos < spans[j].pos })
	return spans
}

// heldByMutex reports whether the last Lock/Unlock event before pos left a
// mutex held.
func heldByMutex(spans []mutexSpan, pos token.Pos) bool {
	locked := false
	for _, s := range spans {
		if s.pos >= pos {
			break
		}
		locked = !s.unlock
	}
	return locked
}
