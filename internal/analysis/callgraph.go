package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the package-closure call graph the interprocedural
// analyzers stand on. The unit of analysis is still one type-checked
// package (analysis.Run hands an analyzer exactly that), so the graph's
// nodes are the package's own function and method declarations and its
// edges are the statically-resolvable calls between them: direct calls
// to package-level functions, method calls whose receiver has a named
// type declared in this package, and calls made from inside function
// literals (attributed to the enclosing declaration — a closure runs
// with its host's context as far as our analyses care). Dynamic calls
// (interface dispatch, function values) have no edge; analyzers that
// need soundness against them must treat missing edges conservatively.

// A funcNode is one declared function or method plus its resolved edges.
type funcNode struct {
	decl *ast.FuncDecl
	obj  *types.Func
	// callees are the in-package calls made (transitively through
	// function literals) inside decl's body, in source order.
	callees []*callSite
	// callers are the sites calling decl from elsewhere in the package.
	callers []*callSite
}

// A callSite is one statically-resolved in-package call.
type callSite struct {
	caller *funcNode
	callee *funcNode
	call   *ast.CallExpr
}

// A callGraph indexes a package's declared functions and the
// statically-resolved calls between them.
type callGraph struct {
	nodes  map[*types.Func]*funcNode
	byDecl map[*ast.FuncDecl]*funcNode
	// order preserves declaration order for deterministic iteration.
	order []*funcNode
}

// buildCallGraph constructs the package-closure call graph for the
// pass's files (non-test files only: the Loader never loads tests).
func buildCallGraph(pass *Pass) *callGraph {
	cg := &callGraph{
		nodes:  map[*types.Func]*funcNode{},
		byDecl: map[*ast.FuncDecl]*funcNode{},
	}
	// First pass: index every declaration so edges can resolve forward
	// references.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &funcNode{decl: fd, obj: fn}
			cg.nodes[fn] = node
			cg.byDecl[fd] = node
			cg.order = append(cg.order, node)
		}
	}
	// Second pass: resolve call sites. Calls inside function literals
	// belong to the enclosing declaration.
	for _, node := range cg.order {
		if node.decl.Body == nil {
			continue
		}
		caller := node
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := cg.resolve(pass, call)
			if callee == nil {
				return true
			}
			site := &callSite{caller: caller, callee: callee, call: call}
			caller.callees = append(caller.callees, site)
			callee.callers = append(callee.callers, site)
			return true
		})
	}
	return cg
}

// resolve maps a call expression to the in-package declaration it
// invokes, or nil for calls that leave the package (or cannot be
// resolved statically).
func (cg *callGraph) resolve(pass *Pass, call *ast.CallExpr) *funcNode {
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
	if !ok {
		return nil
	}
	return cg.nodes[fn]
}

// calleeParam returns the callee parameter object bound to argument
// index i of site, or nil when the callee is variadic past its fixed
// parameters or the declaration carries no parameter names.
func calleeParam(pass *Pass, site *callSite, i int) types.Object {
	return declParam(pass, site.callee.decl, i)
}

// declParam resolves argument index i to fd's parameter object.
func declParam(pass *Pass, fd *ast.FuncDecl, i int) types.Object {
	params := fd.Type.Params
	if params == nil {
		return nil
	}
	idx := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a slot
		}
		if i < idx+n {
			if len(field.Names) == 0 {
				return nil
			}
			return pass.TypesInfo.ObjectOf(field.Names[i-idx])
		}
		idx += n
	}
	return nil
}
