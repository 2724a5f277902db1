package core

import (
	"os"
	"path/filepath"
	"testing"

	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
	"cloudsuite/internal/workloads"
)

// saveAll serializes a workload's complete generator half — shared
// structures plus every thread generator — the way a live image does.
func saveAll(t *testing.T, st workloads.Stateful, gens []*trace.StepGen) *checkpoint.Snapshot {
	t.Helper()
	w := checkpoint.NewWriter()
	st.SaveShared(w)
	for _, g := range gens {
		if !g.CanSave() {
			t.Fatal("generator reports CanSave() == false")
		}
		g.SaveState(w)
	}
	return w.Snapshot("roundtrip")
}

// TestWorkloadStateRoundTrip: for every registered workload,
// save -> load-into-fresh-instance -> save must reproduce the state
// bytes exactly. This is the workload-local contract behind pure-load
// restore: if a field were dropped or restored approximately, the
// second save would differ.
func TestWorkloadStateRoundTrip(t *testing.T) {
	const threads, seed = 4, 7
	for _, b := range AllBenches() {
		w := b.New()
		st, ok := w.(workloads.Stateful)
		if !ok {
			t.Errorf("%s: workload is not live-point capable", b.Name)
			continue
		}
		gens := w.Start(threads, seed)
		// Advance each thread unevenly so the saved state is past the
		// initial conditions and differs per thread.
		buf := make([]trace.Inst, 1024)
		for i, g := range gens {
			for drained := 0; drained < 10_000+3_000*i; {
				n := g.Next(buf)
				if n == 0 {
					t.Fatalf("%s: thread %d stream ended during draining", b.Name, i)
				}
				drained += n
			}
		}
		first := saveAll(t, st, gens)

		// A fresh instance, never advanced, absorbs the saved state...
		w2 := b.New()
		st2 := w2.(workloads.Stateful)
		gens2 := w2.Start(threads, seed)
		rd := first.Reader()
		st2.LoadShared(rd)
		for _, g := range gens2 {
			g.LoadState(rd)
		}
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: loading saved state: %v", b.Name, err)
		}

		// ...and must serialize to the identical bytes.
		second := saveAll(t, st2, gens2)
		if first.Hash() != second.Hash() {
			t.Errorf("%s: save -> load -> save changed the state bytes", b.Name)
		}
		for _, g := range append(gens, gens2...) {
			g.Close()
		}
	}
}

// TestCheckpointTraditionalForkDifferential: the traditional-benchmark
// proxies are live-point capable too, so their forks restore by a pure
// load and must stay byte-identical to cold runs. The set covers a
// plain RNG-driven proxy (mcf), one carrying a cursor and a dependence
// across steps (events), and both kernel-sharing kinds (SPECweb09 and
// a database engine).
func TestCheckpointTraditionalForkDifferential(t *testing.T) {
	for _, name := range []string{"SPECint (mcf)", "SPECint (events)", "SPECweb09", "TPC-C"} {
		b, ok := FindBench(name)
		if !ok {
			t.Fatalf("bench %q missing", name)
		}
		if _, live := b.New().(workloads.Stateful); !live {
			t.Fatalf("%s: workload is not live-point capable", name)
		}
		o := diffOptions(1, false)

		cold, err := MeasureBench(b, o)
		if err != nil {
			t.Fatal(err)
		}
		store, err := NewCheckpointStore("")
		if err != nil {
			t.Fatal(err)
		}
		o.Checkpoints = store
		if _, err := MeasureBench(b, o); err != nil {
			t.Fatal(err)
		}
		forked, err := MeasureBench(b, o)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, forked) != mustJSON(t, cold) {
			t.Fatalf("%s: fork differs from cold run", name)
		}
		if s := store.Stats(); s.Saves != 1 || s.MemoryHits != 1 {
			t.Fatalf("%s: store stats %+v, want 1 save and 1 memory hit", name, s)
		}
	}
}

// coldOnly hides every method of the wrapped workload but the Workload
// interface, standing in for a user workload that cannot serialize.
type coldOnly struct{ workloads.Workload }

// TestCheckpointStoreSkipsNonStatefulWorkload: a workload that is not
// live-point capable runs cold under a store, every time — it saves no
// image, forks nothing, and measures exactly what a store-less run does.
func TestCheckpointStoreSkipsNonStatefulWorkload(t *testing.T) {
	b, ok := FindBench("SPECint (mcf)")
	if !ok {
		t.Fatal("bench SPECint (mcf) missing")
	}
	o := diffOptions(1, false)
	want, err := Measure(coldOnly{b.New()}, o)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewCheckpointStore("")
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoints = store
	for run := 0; run < 2; run++ {
		got, err := Measure(coldOnly{b.New()}, o)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("run %d under a store differs from a store-less run", run)
		}
	}
	if s := store.Stats(); s.Saves != 0 || s.MemoryHits != 0 || s.DiskHits != 0 {
		t.Fatalf("store stats %+v, want no image saved or used", s)
	}
}

// TestCheckpointBadImageDeletedFromDisk: an on-disk image that fails
// verification — corrupted payload or stale format version — must be
// deleted by the probe, not left to fail the same multi-MB read and
// hash on every future process.
func TestCheckpointBadImageDeletedFromDisk(t *testing.T) {
	corrupt := func(raw []byte) { raw[len(raw)-1] ^= 0xFF }
	staleVersion := func(raw []byte) {
		// The format version is the uint32 after the 8-byte magic.
		raw[8], raw[9], raw[10], raw[11] = 2, 0, 0, 0
	}
	for name, mangle := range map[string]func([]byte){
		"corrupt-payload": corrupt,
		"stale-version":   staleVersion,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			w := checkpoint.NewWriter()
			w.U64(42)
			if err := w.Snapshot("some-key").SaveFile(store.path("some-key")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(store.path("some-key"))
			if err != nil {
				t.Fatal(err)
			}
			mangle(raw)
			if err := os.WriteFile(store.path("some-key"), raw, 0o600); err != nil {
				t.Fatal(err)
			}

			snap, commit := store.acquire("some-key")
			if snap != nil {
				t.Fatal("acquire returned a snapshot from an unverifiable image")
			}
			commit(nil)
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) != 0 {
				t.Fatalf("bad image left on disk: %v", files)
			}
			if s := store.Stats(); s.Failures != 1 {
				t.Fatalf("stats %+v, want the bad image counted as a failure", s)
			}
		})
	}
}
