// Command statefp fingerprints the simulator's checkpointed state
// schema. Run it from the module root:
//
//	statefp            print the current schema
//	statefp -write     regenerate the golden (after a Version bump)
//
// The gate itself is TestRepoGolden in internal/analysis/statefp, part
// of `go test ./...`: editing any SaveState/LoadState type (or a struct
// nested inside one) changes its fingerprint, and the test fails unless
// checkpoint.Version was bumped and the golden regenerated in the same
// change. See DESIGN.md §8.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudsuite/internal/analysis/statefp"
)

func main() {
	write := flag.Bool("write", false, "regenerate the golden ("+statefp.GoldenPath+") from the current tree")
	flag.Parse()

	cur, err := statefp.Compute(".")
	if err != nil {
		fail(err)
	}
	data, err := statefp.Marshal(cur)
	if err != nil {
		fail(err)
	}
	if !*write {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(statefp.GoldenPath, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("statefp: wrote %s (%d types, version %d)\n", statefp.GoldenPath, len(cur.Types), cur.Version)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "statefp:", err)
	os.Exit(2)
}
