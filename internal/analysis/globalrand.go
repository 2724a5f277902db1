package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRand flags process-global randomness and package-global
// mutable state in non-test simulator code:
//
//   - calls through math/rand's (or math/rand/v2's) top-level
//     process-global generator (rand.Intn, rand.Float64, rand.Seed,
//     ...). Randomness must flow from a seeded per-run *rand.Rand so a
//     seed maps to exactly one trace; the global generator is both
//     unseeded-by-default and shared across goroutines, so the parallel
//     Runner would interleave draws. Constructors (rand.New,
//     rand.NewSource, rand.NewZipf) are allowed — they are how the
//     seeded per-run generators get built.
//   - new package-level `var` declarations: mutable state must live in
//     the System/engine object so concurrent simulations cannot share
//     it. The historical instance: DebugSharing was a package-level map
//     in internal/sim/cache, raced on by every System under the
//     parallel Runner until PR 5 moved it into the System struct.
//     Genuinely immutable package-level values (a format magic, a
//     lookup table written once) carry //simlint:ok globalrand <reason>.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "flags process-global randomness and package-level mutable state in simulator packages",
	Run:  runGlobalRand,
}

// globalRandAllowed are the math/rand functions that construct seeded
// generators rather than touching the process-global one.
var globalRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2 seeded source
	"NewChaCha8": true,
}

func runGlobalRand(pass *Pass) error {
	if !determinismScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Package-level vars.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok.String() != "var" {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level var %s is shared by every concurrent simulation (the DebugSharing data race); move it into the owning struct or annotate //simlint:ok globalrand <reason>",
						name.Name)
				}
			}
		}
		// Uses of the process-global generator.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			if p := fn.Pkg().Path(); (p == "math/rand" || p == "math/rand/v2") && !globalRandAllowed[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"%s.%s uses the process-global generator; draw from a seeded per-run *rand.Rand instead (determinism contract)",
					fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}
