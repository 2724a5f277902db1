package analysis_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudsuite/internal/analysis"
)

// TestLoadAllWalksLikeDotDotDot checks the Loader's package walk on a
// throwaway module: nested modules, testdata, test files and
// build-constrained-out files must all stay out. Each excluded file
// would break type-checking if it were loaded.
func TestLoadAllWalksLikeDotDotDot(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                "module tmpmod\n\ngo 1.24\n",
		"root.go":               "package tmpmod\n",
		"app/main.go":           "package main\n\nimport \"tmpmod/lib\"\n\nfunc main() { lib.F() }\n",
		"lib/lib.go":            "package lib\n\nfunc F() {}\n",
		"lib/lib_test.go":       "package lib\n\nvar _ = undefinedInTest\n",
		"lib/gen.go":            "//go:build ignore\n\npackage main\n",
		"lib/testdata/x.go":     "package x\n\nvar _ = undefinedInTestdata\n",
		"nested/go.mod":         "module nested\n\ngo 1.24\n",
		"nested/nested.go":      "package nested\n\nvar _ = undefinedInNestedModule\n",
		"_scratch/scratch.go":   "package scratch\n\nvar _ = undefinedInUnderscoreDir\n",
		"lib/.hidden/hidden.go": "package hidden\n\nvar _ = undefinedInHiddenDir\n",
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.NewLoader(root, "tmpmod").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Pkg.Path())
		for _, f := range pkg.Files {
			rel, err := filepath.Rel(root, pkg.Fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			got[pkg.Pkg.Path()] = append(got[pkg.Pkg.Path()], filepath.ToSlash(rel))
		}
	}
	if want := []string{"tmpmod", "tmpmod/app", "tmpmod/lib"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("LoadAll paths = %v, want %v", paths, want)
	}
	want := map[string][]string{
		"tmpmod":     {"root.go"},
		"tmpmod/app": {"app/main.go"},
		"tmpmod/lib": {"lib/lib.go"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LoadAll files = %v, want %v", got, want)
	}
}

// TestDesignSuppressionTable keeps DESIGN.md §8's generated audit table
// equal to what `go run ./cmd/simlint -suppressions` prints.
func TestDesignSuppressionTable(t *testing.T) {
	root := filepath.Join("..", "..")
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### Standing suppressions (generated)")
	if !ok {
		t.Fatal("DESIGN.md has no \"Standing suppressions (generated)\" section")
	}
	start := strings.Index(section, "| Location |")
	if start < 0 {
		t.Fatal("DESIGN.md suppression section has no table")
	}
	table, _, _ := strings.Cut(section[start:], "\n\n")
	sups, err := analysis.ListSuppressions(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := analysis.FormatSuppressions(sups); table+"\n" != want {
		t.Errorf("DESIGN.md §8 suppression table is stale; replace it with the output of `go run ./cmd/simlint -suppressions`:\n%s", want)
	}
}
