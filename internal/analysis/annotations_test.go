package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func loadSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// A reason-less //simlint:ok is not a suppression — it is a diagnostic
// of its own, and the underlying finding still fires.
func TestMalformedAnnotationReported(t *testing.T) {
	pkg := loadSrc(t, "internal/sim/x", `package x

//simlint:ok globalrand
var leaked = map[int]int{}
`)
	diags := Run(pkg, []*Analyzer{GlobalRand})
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (malformed annotation + finding), got %d: %v", len(diags), diags)
	}
	var haveAnn, haveVar bool
	for _, d := range diags {
		if d.Analyzer == "annotation" && strings.Contains(d.Message, "needs an analyzer name and a reason") {
			haveAnn = true
		}
		if d.Analyzer == "globalrand" && strings.Contains(d.Message, "leaked") {
			haveVar = true
		}
	}
	if !haveAnn || !haveVar {
		t.Fatalf("missing expected diagnostics: %v", diags)
	}
}

// A well-formed annotation suppresses only its own analyzer, on its own
// line or the line below.
func TestSuppressionScope(t *testing.T) {
	pkg := loadSrc(t, "internal/sim/x", `package x

//simlint:ok globalrand immutable lookup table, written by nobody
var table = [2]int{1, 2}

var unexcused = map[int]int{}
`)
	diags := Run(pkg, []*Analyzer{GlobalRand})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unexcused") {
		t.Fatalf("want exactly the unexcused finding, got %v", diags)
	}
	// The same annotation must not silence a different analyzer.
	if got := Run(pkg, []*Analyzer{MapOrder}); len(got) != 0 {
		t.Fatalf("maporder should have nothing to say here, got %v", got)
	}
}
