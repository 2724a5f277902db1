package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// protoBuf writes the protobuf subset parseCPUProfile reads.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs []uint64) {
	var q protoBuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// cannedProfile encodes a CPU profile whose samples have the given
// stacks (leaf first) and CPU nanoseconds. Every function gets its own
// location; the first stack frame pair shares one location to exercise
// inlined frames, and sample values alternate between packed and
// unpacked encodings as runtime/pprof's do.
func cannedProfile(t *testing.T, stacks [][]string, cpuNS []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var prof protoBuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m protoBuf
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		prof.bytes(1, m.b)
	}
	funcID := map[string]uint64{}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); j++ {
			names := []string{stack[j]}
			if i == 0 && j == 0 && len(stack) > 1 {
				names = stack[:2] // an inlined leaf and its caller in one location
				j++
			}
			var loc protoBuf
			loc.varint(1, nextLoc)
			for _, n := range names {
				id, ok := funcID[n]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[n] = id
					var fn protoBuf
					fn.varint(1, id)
					fn.varint(2, str(n))
					prof.bytes(5, fn.b)
				}
				var line protoBuf
				line.varint(1, id)
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s protoBuf
		s.packed(1, locs)
		if i%2 == 0 {
			s.packed(2, []uint64{1, uint64(cpuNS[i])})
		} else {
			s.varint(2, 1)
			s.varint(2, uint64(cpuNS[i]))
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeCannedProfile(t *testing.T) {
	const (
		engine = "cloudsuite/internal/sim/engine.(*core).issue"
		access = "cloudsuite/internal/sim/cache.(*System).AccessData"
		check  = "cloudsuite/internal/sim/cache.(*System).CheckInvariants"
		run    = "cloudsuite/internal/sim/engine.Run"
		save   = "cloudsuite/internal/sim/checkpoint.SaveFile"
	)
	stacks := [][]string{
		{engine, run, "runtime.goexit"},
		{"cloudsuite/internal/trace.(*Emitter).push", "cloudsuite/internal/workloads/websearch.(*Index).lookup", "runtime.goexit"},
		{"cloudsuite/internal/sim/cache.(*Cache).probe", check, run, "runtime.goexit"},
		{"sort.insertionSort", check, run, "runtime.goexit"},
		{"crypto/internal/fips140/sha256.blockSHANI", "crypto/sha256.(*Digest).Write", save, "runtime.goexit"},
		{"syscall.Syscall", "os.(*File).Write", save, "runtime.goexit"},
		{"runtime.mallocgc", access, run, "runtime.goexit"},
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		{"internal/runtime/maps.(*Map).getWithKey", "cloudsuite/internal/core.canonicalize", "runtime.goexit"},
		{"cloudsuite/internal/rng.(*Rand).Uint64", "cloudsuite/internal/oskern.(*Kernel).Syscall", "runtime.goexit"},
		{"cloudsuite/internal/sim/topo.Hops[go.shape.int]", access, "runtime.goexit"},
		{"encoding/json.Marshal", "main.digest", "main.main", "runtime.main"},
		{"cloudsuite/internal/obs.(*RunObs).Enter", run, "runtime.goexit"},
	}
	ns := []int64{50, 10, 7, 3, 4, 2, 6, 5, 1, 2, 4, 5, 1}
	samples, err := parseCPUProfile(cannedProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if s.cpuNS != ns[i] || len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] {
			t.Fatalf("sample %d decoded as %v %d, want %v %d", i, s.stack, s.cpuNS, stacks[i], ns[i])
		}
	}

	a := attribute(samples)
	want := map[string]int64{
		"engine":     50,
		"trace":      12, // emitter, plus rng under oskern
		"cache":      14, // probe + sort under the checker + topo's generic Hops
		"checkpoint": 6,  // sha256 and the file write beneath SaveFile
		"runtime":    12, // malloc, GC worker, swiss-map lookup
		"obs":        1,
		"other":      5, // the benchmark's own main goroutine
	}
	var total int64
	for l, ns := range a.layerNS {
		if ns != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, ns, want[l])
		}
		total += ns
	}
	for l, ns := range want {
		if a.layerNS[l] != ns {
			t.Errorf("layer %s: %d ns, want %d", l, a.layerNS[l], ns)
		}
	}
	if total != a.totalNS || a.totalNS != 100 {
		t.Errorf("layers sum to %d of %d ns, want 100", total, a.totalNS)
	}
	if a.invariantsNS != 10 {
		t.Errorf("invariants: %d ns cumulative, want 10", a.invariantsNS)
	}
	if got := a.share("other"); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("other share %g, want 0.05", got)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cloudsuite/internal/sim/cache.(*System).AccessData": "cloudsuite/internal/sim/cache",
		"runtime.mallocgc":                                        "runtime",
		"sort.Slice[go.shape.struct { a/b.c int }]":               "sort",
		"cloudsuite/internal/workloads/websearch.New.func1":       "cloudsuite/internal/workloads/websearch",
		"crypto/internal/fips140/sha256.blockSHANI":               "crypto/internal/fips140/sha256",
		"type:.eq.cloudsuite/internal/sim/cache.line":             "type:.eq.cloudsuite/internal/sim/cache",
		"cloudsuite/internal/sim/topo.Hops[...]":                  "cloudsuite/internal/sim/topo",
		"cloudsuite/internal/sim/engine.(*core).issue.deferwrap1": "cloudsuite/internal/sim/engine",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for fn, want := range map[string]string{
		"runtime/pprof.profileWriter":                "runtime",
		"runtime.goexit":                             "",
		"runtimex.F":                                 "",
		"cloudsuite/internal/corex.F":                "",
		"cloudsuite/internal/workloads/mapreduce.Fn": "trace",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
