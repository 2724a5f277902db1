// Command simlint runs the project's static-analysis suite
// (internal/analysis) over the module: the eight analyzers maporder,
// globalrand, checkpointcov, memokey, lockfield, atomicmix, obspure,
// and clocktaint, which enforce the determinism, checkpoint-coverage,
// memo-key, locking, and observer-purity contracts.
//
// Usage:
//
//	go run ./cmd/simlint                # lint the module (run from its root)
//	simlint -suppressions [dir]         # audit table of all annotations
//
// simlint loads every package of the module from source with one
// analysis.Loader (non-test files, nested modules skipped as ./...
// skips them) and runs the full suite on each.
//
// Exit status: 0 clean, 2 when diagnostics were reported, 1 on driver
// errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudsuite/internal/analysis"
)

func main() {
	suppressions := flag.Bool("suppressions", false,
		"print the audit table of every //simlint:ok annotation under the argument directory (default .) and exit")
	flag.Parse()
	if *suppressions {
		root := "."
		if flag.NArg() > 0 {
			root = flag.Arg(0)
		}
		os.Exit(printSuppressions(root))
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "simlint: takes no package arguments; it lints the whole module from its root directory")
		os.Exit(1)
	}
	os.Exit(lint("."))
}

// lint loads the module rooted at root and prints every diagnostic of
// the suite.
func lint(root string) int {
	module, err := analysis.ModulePath(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	pkgs, err := analysis.NewLoader(root, module).LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	status := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.Run(pkg, analysis.All) {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			status = 2
		}
	}
	return status
}

// printSuppressions answers `simlint -suppressions [dir]`: the
// purely-syntactic annotation audit (no type checking), rendered as the
// markdown table DESIGN.md §8 embeds.
func printSuppressions(root string) int {
	sups, err := analysis.ListSuppressions(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	fmt.Print(analysis.FormatSuppressions(sups))
	return 0
}
