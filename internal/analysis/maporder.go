package analysis

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` over a map in non-test simulator code.
//
// Map iteration order is randomized per run, so any map range whose
// body's effect depends on visit order breaks the bit-determinism
// contract (serial == parallel == re-run byte-identical). The
// historical instance: StreamI's bounded-history prefetcher evicted
// "one arbitrary entry" by ranging a map and breaking after the first
// key — a different victim every process, a different miss stream every
// run, caught only by the PR-5 checkpoint differential.
//
// Two idioms are recognized as order-independent and allowed:
//
//   - collect-then-sort: a range whose body is exactly
//     `keys = append(keys, k)` — ordering happens downstream, so the
//     visit order cannot leak into results;
//   - full clear: a range whose body is exactly `delete(m, k)` on the
//     ranged map — every key goes, order irrelevant. (Evicting ONE
//     entry this way — delete plus break — is the StreamI bug and is
//     flagged.)
//
// Anything else needs `//simlint:ok maporder <reason>`.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration in simulator packages: visit order is randomized and breaks bit-determinism unless the body is provably order-independent",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if !determinismScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if blankRange(rng) || sortedKeysIdiom(pass, rng) || clearIdiom(pass, rng) {
				return true
			}
			pass.Reportf(rng.Pos(),
				"map iteration order is randomized and breaks bit-determinism; collect keys and sort, or annotate //simlint:ok maporder <reason>")
			return true
		})
	}
	return nil
}

// blankRange reports a range that never binds the key or value
// (`for range m` / `for _ = range m`): the body cannot observe the
// iteration element, so N identical executions are order-independent.
func blankRange(rng *ast.RangeStmt) bool {
	blank := func(e ast.Expr) bool {
		if e == nil {
			return true
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	return blank(rng.Key) && blank(rng.Value)
}

// sortedKeysIdiom recognizes the collect-then-sort prologue: the loop
// body is exactly one statement appending the range key to a slice
// (`keys = append(keys, k)`). The append order still follows map order,
// but the slice is sorted (or otherwise ordered) before any
// order-sensitive use, which is the reviewer-checkable property; what
// the analyzer pins down is that the body has no other effect.
func sortedKeysIdiom(pass *Pass, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || !isBuiltin(pass, fn) {
		return false
	}
	// append's first arg must be the assignment target, the second the
	// range key — anything fancier falls back to the annotation.
	lhs, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(arg0) != pass.TypesInfo.ObjectOf(lhs) {
		return false
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(arg1) == pass.TypesInfo.ObjectOf(key)
}

// clearIdiom recognizes the full-clear loop: the body is exactly
// `delete(m, k)` on the ranged map with the range key. With no break
// every entry is removed, so visit order cannot matter. (The spec
// guarantees entries not yet reached may be skipped only when deleted —
// here they all are.)
func clearIdiom(pass *Pass, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	expr, ok := rng.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "delete" || !isBuiltin(pass, fn) {
		return false
	}
	arg1, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(arg1) != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	// The deleted map must be the ranged map: a plain identifier or a
	// one-level selection (s.hist) resolving to the same objects; deeper
	// structure falls back to the annotation.
	return sameSimpleExpr(pass, rng.X, call.Args[0])
}

// sameSimpleExpr reports whether a and b are the same identifier or the
// same one-level field selection on the same base object.
func sameSimpleExpr(pass *Pass, a, b ast.Expr) bool {
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		return ok && pass.TypesInfo.ObjectOf(av) == pass.TypesInfo.ObjectOf(bv) &&
			pass.TypesInfo.ObjectOf(av) != nil
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok &&
			pass.TypesInfo.ObjectOf(av.Sel) == pass.TypesInfo.ObjectOf(bv.Sel) &&
			pass.TypesInfo.ObjectOf(av.Sel) != nil &&
			sameSimpleExpr(pass, av.X, bv.X)
	}
	return false
}

func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok
}
