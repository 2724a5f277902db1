// Package analysis is the project's static-analysis suite (simlint):
// eight analyzers that enforce the contracts every result in this
// repository rests on — bit-determinism of measurements (serial ==
// parallel: maporder, globalrand, clocktaint), checkpoint field
// coverage (restore == cold: checkpointcov), memo-key completeness (no
// cache aliasing between distinct configurations: memokey), lock and
// atomic discipline (lockfield, atomicmix), and observer purity
// (obspure).
//
// cmd/simlint loads the module from source with a Loader (load.go) and
// runs the suite over every package, so CI enforces the contracts on
// every change. Each analyzer documents the historical bug class that
// motivated it; the suite exists because all three contract breaks to
// date (the StreamI randomized map-iteration eviction, the DebugSharing
// package-global data race, the negative-budget uint64-wrap hang) were
// mechanically detectable and found late.
//
// The framework below is a deliberately small, dependency-free subset
// of golang.org/x/tools/go/analysis: an Analyzer runs over one
// type-checked package and reports position-tagged diagnostics. It
// exists so the suite builds with the standard library only (the
// module vendors nothing); the shapes mirror x/tools so a future
// migration is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one simlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line flags,
	// and //simlint:ok annotations.
	Name string
	// Doc is the analyzer's help text; the first line is a summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type information for Files.
	TypesInfo *types.Info
	// Report receives diagnostics; the driver applies //simlint:ok
	// suppression downstream, so analyzers report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// A Package is the driver-side unit of work: one parsed and
// type-checked package, as a Loader loads it (non-test files only).
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to pkg and returns the surviving
// diagnostics in file/line order. Suppression is applied centrally:
// a diagnostic is dropped when a well-formed
// `//simlint:ok <analyzer> <reason>` annotation covers its line (see
// annotations.go), so individual analyzers never re-implement the
// annotation grammar. Malformed annotations (missing the mandatory
// reason) are themselves reported, attributed to the annotation line.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	anns := collectAnnotations(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if anns.suppresses(pkg.Fset, d.Pos, a.Name) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			out = append(out, Diagnostic{
				Pos:      token.NoPos,
				Message:  fmt.Sprintf("internal error: %v", err),
				Analyzer: a.Name,
			})
		}
	}
	out = append(out, anns.malformed...)
	out = append(out, anns.staleSuppressions(analyzers)...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out
}

// simPackagePath reports whether path belongs to the simulator proper —
// the packages whose behavior feeds measured results and therefore
// falls under the determinism contract. Matching is by path fragment so
// the same rule covers the real module ("cloudsuite/internal/sim/...")
// and test fixtures ("internal/sim/streami").
func simPackagePath(path string) bool {
	for _, frag := range []string{
		"internal/sim",
		"internal/trace",
		"internal/workloads",
		"internal/core",
		"internal/oskern",
		// internal/obs is the audited wall-clock boundary: it is inside
		// the analyzer's scope precisely so every clock read there must
		// carry a reviewed //simlint:ok suppression.
		"internal/obs",
	} {
		if path == frag || strings.Contains(path, frag+"/") ||
			strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") {
			return true
		}
	}
	return false
}

// cmdPackagePath reports whether path is a command package (a cmd/
// directory anywhere in the path). The CLIs are outside the measured
// path but still feed bytes into published results, so the determinism
// analyzers cover them too; their legitimate wall-clock and randomness
// uses (progress display, listen addresses) carry audited suppressions.
func cmdPackagePath(path string) bool {
	return path == "cmd" || strings.HasPrefix(path, "cmd/") ||
		strings.Contains(path, "/cmd/") || strings.HasSuffix(path, "/cmd")
}

// determinismScope is the scope of the determinism analyzers (maporder,
// globalrand, and clocktaint's raw clock-read rule): the simulator
// proper plus the command packages.
func determinismScope(path string) bool {
	return simPackagePath(path) || cmdPackagePath(path)
}

// receiverType resolves a method receiver expression to its named type,
// unwrapping a pointer; nil when the expression is not a plain (possibly
// pointed-to) named receiver.
func receiverType(info *types.Info, recv *ast.Field) *types.Named {
	if recv == nil {
		return nil
	}
	t := info.TypeOf(recv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
