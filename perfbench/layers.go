package main

import "strings"

// layerTable maps package paths to the simulator's layers. A package
// matches an entry equal to it or nested under it. This is the one
// place the package->layer split is written down; CPU that no entry
// claims is reported as "other".
var layerTable = []struct{ pkg, layer string }{
	{"cloudsuite/internal/core", "core"},
	{"cloudsuite/internal/sim/engine", "engine"},
	{"cloudsuite/internal/trace", "trace"},
	{"cloudsuite/internal/workloads", "trace"},
	{"cloudsuite/internal/oskern", "trace"},
	{"cloudsuite/internal/rng", "trace"},
	{"cloudsuite/internal/addrspace", "trace"},
	{"cloudsuite/internal/sim/cache", "cache"},
	{"cloudsuite/internal/sim/topo", "cache"},
	{"cloudsuite/internal/sim/prefetch", "prefetch"},
	{"cloudsuite/internal/sim/tlb", "tlb"},
	{"cloudsuite/internal/sim/bpred", "bpred"},
	{"cloudsuite/internal/sim/dram", "dram"},
	{"cloudsuite/internal/sim/checkpoint", "checkpoint"},
	{"crypto/sha256", "checkpoint"},
	{"crypto/internal/fips140/sha256", "checkpoint"},
	{"cloudsuite/internal/obs", "obs"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// invariantsFunc is the coherence checker's entry point; CPU under it
// (cumulative) is the observer cost an armed run pays.
const invariantsFunc = "cloudsuite/internal/sim/cache.(*System).CheckInvariants"

// goroutineRoots are runtime frames at the bottom of every stack.
// They do not claim the work of the code running above them.
var goroutineRoots = map[string]bool{"runtime.goexit": true, "runtime.main": true}

// attribution is one profile's CPU split by layer.
type attribution struct {
	totalNS      int64
	layerNS      map[string]int64
	invariantsNS int64 // cumulative CPU under invariantsFunc
}

func (a attribution) cpuS(layer string) float64 { return float64(a.layerNS[layer]) / 1e9 }

func (a attribution) share(layer string) float64 {
	if a.totalNS == 0 {
		return 0
	}
	return float64(a.layerNS[layer]) / float64(a.totalNS)
}

// attribute buckets each sample's flat CPU into the layer of its
// innermost frame whose package is in layerTable. A leaf in an unlisted
// package (sort, encoding/binary, os, syscall ...) is charged to the
// layer that called it, so file I/O beneath the checkpoint package
// counts as checkpoint; a sample with no listed frame is "other".
func attribute(samples []sample) attribution {
	a := attribution{layerNS: map[string]int64{}}
	for _, s := range samples {
		a.totalNS += s.cpuNS
		layer := "other"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		a.layerNS[layer] += s.cpuNS
		for _, fn := range s.stack {
			if fn == invariantsFunc {
				a.invariantsNS += s.cpuNS
				break
			}
		}
	}
	return a
}

// layerOf returns the layer of the function's package, or "" when the
// package is not in layerTable.
func layerOf(fn string) string {
	if goroutineRoots[fn] {
		return ""
	}
	pkg := packageOf(fn)
	for _, e := range layerTable {
		if pkg == e.pkg || strings.HasPrefix(pkg, e.pkg+"/") {
			return e.layer
		}
	}
	return ""
}

// packageOf extracts the import path from a fully qualified function
// name such as "cloudsuite/internal/sim/cache.(*System).AccessData" or
// "sort.Slice[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
