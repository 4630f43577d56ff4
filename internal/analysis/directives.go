package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Contract directives. A directive is a comment line of the exact form
// "//dpbyz:<name>" (no space after //, optionally followed by a space and a
// free-form note), attached to the declaration it governs:
//
//   - //dpbyz:deterministic — in a file's package comment (or a standalone
//     comment above the package clause): the package's exported results must
//     be pure functions of its inputs. Enforced by detlint on every file of
//     the package.
//   - //dpbyz:hotpath — in a function's doc comment: the function is a
//     steady-state hot path and must not allocate. Enforced by hotpathalloc.
//   - //dpbyz:scratch — in a function's doc comment: the function returns
//     pooled/reused scratch memory; or in a type's doc comment: values of the
//     type carry reused scratch in their fields. Consumed by scratchalias.
//   - //dpbyz:testseam — in a function's doc comment, next to the reason: a
//     reviewed seam that only tests call (a helper shared by tests of
//     several packages, a fault-injection or tuning hook). Waives testonly
//     for that declaration.
const (
	directiveDeterministic = "deterministic"
	directiveHotPath       = "hotpath"
	directiveScratch       = "scratch"
	directiveTestSeam      = "testseam"
)

// Inline waivers. A waiver suppresses one analyzer's diagnostic on the line
// it trails or the line directly below it, recording that a human reviewed
// the construct:
//
//   - //dpbyz:orderedmap — the map iteration is order-insensitive.
//   - //dpbyz:wallclock  — the wall-clock read is telemetry-only and does
//     not feed results.
//   - //dpbyz:allowalloc — the allocation is init-time/amortized and covered
//     by a runtime AllocsPerRun gate.
//   - //dpbyz:allowalias — the retention of scratch is intentional (e.g. the
//     pool implementation itself).
//   - //dpbyz:unregistered — the string is deliberately not a registered name
//     (an error-path test fixture exercising unknown-name rejection).
const (
	waiverOrderedMap   = "orderedmap"
	waiverWallClock    = "wallclock"
	waiverAllowAlloc   = "allowalloc"
	waiverAllowAlias   = "allowalias"
	waiverUnregistered = "unregistered"
)

const directivePrefix = "//dpbyz:"

// directiveName extracts the directive name from one comment, or "".
func directiveName(c *ast.Comment) string {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		text = text[:i]
	}
	return text
}

// hasDirective reports whether the comment group carries the named directive.
func hasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if directiveName(c) == name {
			return true
		}
	}
	return false
}

// fileDeclaresDeterministic reports whether f declares its package
// deterministic: the directive appears in the package doc comment or in any
// standalone comment above the package clause.
func fileDeclaresDeterministic(f *ast.File) bool {
	if hasDirective(f.Doc, directiveDeterministic) {
		return true
	}
	for _, cg := range f.Comments {
		if cg.End() <= f.Package && hasDirective(cg, directiveDeterministic) {
			return true
		}
	}
	return false
}

// packageIsDeterministic reports whether any file of the unit declares the
// package deterministic; the contract is package-wide.
func packageIsDeterministic(files []*ast.File) bool {
	for _, f := range files {
		if fileDeclaresDeterministic(f) {
			return true
		}
	}
	return false
}

// waiverIndex maps source lines to the waiver names present on them.
type waiverIndex struct {
	fset  *token.FileSet
	lines map[string]map[int]map[string]bool // filename -> line -> waivers
}

// newWaiverIndex scans every comment of the files for waiver directives. A
// waiver on line L covers nodes on L (trailing comment) and on L+1 (comment
// directly above the statement).
func newWaiverIndex(fset *token.FileSet, files []*ast.File) *waiverIndex {
	w := &waiverIndex{fset: fset, lines: map[string]map[int]map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := directiveName(c)
				switch name {
				case waiverOrderedMap, waiverWallClock, waiverAllowAlloc,
					waiverAllowAlias, waiverUnregistered:
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := w.lines[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					w.lines[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return w
}

// allows reports whether the named waiver covers pos.
func (w *waiverIndex) allows(pos token.Pos, name string) bool {
	p := w.fset.Position(pos)
	return w.lines[p.Filename][p.Line][name]
}
