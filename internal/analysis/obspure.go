package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ObsPure proves the PR-8 pure-observer contract in both directions:
//
// Observer side (internal/obs packages): obs must never feed back into
// simulation state. Importing a simulator package from obs is flagged
// at the import, and — for the paths an import ban alone cannot excuse
// (state smuggled in through an interface or pointer) — any write to a
// field declared in a simulator package, and any call into one, is
// flagged at the site, with the exported observer entry point it is
// reachable from named as the witness (the call path that makes an
// innocently-named helper an armed feedback channel).
//
// Simulator side (internal/{sim,core,trace,workloads,oskern}): engine
// code may reach obs only through the nil-safe handle API — obs.Now,
// obs.Since, and methods on handle types (Counter.Add, RunObs.Enter,
// ...), all of which are no-ops on a nil receiver so the unarmed run
// stays zero-cost and byte-identical. The armed-side API (obs.New,
// obs.Serve, Observer.WriteFiles) belongs to cmd/ alone: an engine
// that constructs or serves its own observer has made observability a
// simulation input.
//
// This analyzer replaces the hand-maintained suppression audit that
// DESIGN.md §9 used to carry for the observer boundary.
var ObsPure = &Analyzer{
	Name: "obspure",
	Doc:  "enforces the pure-observer contract: obs never writes simulation state; sim code uses only the nil-safe obs handle API",
	Run:  runObsPure,
}

// obsPackagePath reports whether path is the observability layer,
// matched by fragment like simPackagePath so fixtures participate.
func obsPackagePath(path string) bool {
	frag := "internal/obs"
	return path == frag || strings.Contains(path, frag+"/") ||
		strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/")
}

// simStatePath is the simulator-proper scope minus the observer itself:
// the packages whose state obs must never touch.
func simStatePath(path string) bool {
	return simPackagePath(path) && !obsPackagePath(path)
}

// obsArmedFuncs is the armed-side package-level API, callable from cmd/
// only.
var obsArmedFuncs = map[string]bool{
	"New":   true,
	"Serve": true,
}

// obsArmedMethods is the armed-side method API, callable from cmd/ only.
var obsArmedMethods = map[string]bool{
	"WriteFiles": true,
}

func runObsPure(pass *Pass) error {
	switch {
	case obsPackagePath(pass.Pkg.Path()):
		return runObsSide(pass)
	case simStatePath(pass.Pkg.Path()):
		return runSimSide(pass)
	}
	return nil
}

// runObsSide checks the observer package itself: no simulator imports,
// no writes into simulator-declared state, no calls into simulator
// packages.
func runObsSide(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if simStatePath(path) {
				pass.Reportf(imp.Pos(),
					"internal/obs is a pure observer and must not import simulator package %q (pure-observer contract)", path)
			}
		}
	}

	cg := buildCallGraph(pass)
	for _, node := range cg.order {
		if node.decl.Body == nil {
			continue
		}
		entry := reachableEntry(node)
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if fv := simStateField(pass, lhs); fv != nil {
						pass.Reportf(lhs.Pos(),
							"observer code writes simulator state %s.%s (reachable from %s); observers must never feed back into the simulation",
							fv.Pkg().Name(), fv.Name(), entry)
					}
				}
			case *ast.IncDecStmt:
				if fv := simStateField(pass, v.X); fv != nil {
					pass.Reportf(v.X.Pos(),
						"observer code writes simulator state %s.%s (reachable from %s); observers must never feed back into the simulation",
						fv.Pkg().Name(), fv.Name(), entry)
				}
			case *ast.CallExpr:
				if fn := externalCallee(pass, v); fn != nil && fn.Pkg() != nil && simStatePath(fn.Pkg().Path()) {
					pass.Reportf(v.Pos(),
						"observer code calls simulator function %s.%s (reachable from %s); observers must never feed back into the simulation",
						fn.Pkg().Name(), fn.Name(), entry)
				}
			}
			return true
		})
	}
	return nil
}

// simStateField resolves an assignment target to a struct field declared
// in a simulator (non-obs) package, nil otherwise.
func simStateField(pass *Pass, lhs ast.Expr) *types.Var {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fv, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
	if !ok || !fv.IsField() || fv.Pkg() == nil {
		return nil
	}
	if !simStatePath(fv.Pkg().Path()) {
		return nil
	}
	return fv
}

// externalCallee returns the called *types.Func when the call leaves the
// current package, nil for in-package, builtin, or dynamic calls.
func externalCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == pass.Pkg {
		return nil
	}
	return fn
}

// reachableEntry walks callers backwards from node to the first exported
// function that reaches it — the observer API surface a violation is
// live through. Falls back to the node's own name.
func reachableEntry(node *funcNode) string {
	seen := map[*funcNode]bool{node: true}
	queue := []*funcNode{node}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.obj.Exported() {
			return cur.obj.Name()
		}
		for _, site := range cur.callers {
			if !seen[site.caller] {
				seen[site.caller] = true
				queue = append(queue, site.caller)
			}
		}
	}
	return node.obj.Name()
}

// runSimSide checks engine code: every use of the obs package must go
// through the nil-safe handle API.
func runSimSide(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !obsPackagePath(fn.Pkg().Path()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			if sig.Recv() == nil {
				if obsArmedFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"obs.%s is armed-side API (cmd/ only); simulator code may reach obs only through the nil-safe handles (obs.Now, obs.Since, handle methods)",
						fn.Name())
				}
			} else if obsArmedMethods[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"(%s).%s is armed-side API (cmd/ only); simulator code may reach obs only through the nil-safe handles",
					sig.Recv().Type(), fn.Name())
			}
			return true
		})
	}
	return nil
}
