package analysis

import (
	"go/ast"
	"go/types"
)

// MemoKey verifies memo-key completeness: every field of the
// measurement-options struct must flow into the canonical memo-key
// construction, or carry an explicit exemption.
//
// The Runner memoizes Measurements keyed on canonicalize(Options) — two
// requests with equal canonical forms share one cache slot and one
// simulation. A field that changes measured results but is missing from
// canonicalize makes two DIFFERENT configurations alias the same slot:
// the second silently gets the first one's numbers. That is the worst
// failure mode this repository has — wrong data that looks right — and
// nothing downstream can detect it.
//
// The analyzer fires in any package that declares both a struct type
// named Options and a function named canonicalize; in this module that
// is internal/core. A field is covered when it is selected inside
// canonicalize or inside any same-package function reachable from it
// through static calls. Fields that genuinely cannot affect results
// (pure observers like InvariantChecks, wall-clock-only plumbing like
// Checkpoints) carry `//simlint:ok memokey <reason>` — the annotation
// is the audited claim that result-equality is preserved.
var MemoKey = &Analyzer{
	Name: "memokey",
	Doc:  "verifies every Options field reaches the canonical memo-key construction (canonicalize) or is explicitly memo-excluded",
	Run:  runMemoKey,
}

func runMemoKey(pass *Pass) error {
	var optionsTN *types.TypeName
	funcs := map[string]*ast.FuncDecl{} // package-level functions by name
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[d.Name.Name] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Options" {
						continue
					}
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						if _, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
							optionsTN = tn
						}
					}
				}
			}
		}
	}
	canon := funcs["canonicalize"]
	if optionsTN == nil || canon == nil {
		return nil
	}
	st := optionsTN.Type().Underlying().(*types.Struct)

	// Fields selected in canonicalize or any package-level function it
	// (transitively) calls.
	covered := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]bool{}
	work := []*ast.FuncDecl{canon}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if fd == nil || seen[fd] || fd.Body == nil {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if s := pass.TypesInfo.Selections[e]; s != nil {
					if fv, ok := s.Obj().(*types.Var); ok && fv.IsField() {
						covered[fv] = true
					}
				}
			case *ast.CallExpr:
				if id, ok := e.Fun.(*ast.Ident); ok {
					if next := funcs[id.Name]; next != nil {
						work = append(work, next)
					}
				}
			}
			return true
		})
	}

	fieldDecl := structFieldDecls(pass, optionsTN, st)
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if covered[fv] {
			continue
		}
		pos := optionsTN.Pos()
		if af := fieldDecl[fv]; af != nil {
			pos = af.Pos()
		}
		pass.Reportf(pos,
			"Options.%s does not reach canonicalize: two configurations differing only in it would alias one memo slot; key it or annotate //simlint:ok memokey <reason>",
			fv.Name())
	}
	return nil
}
