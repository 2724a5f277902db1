// Command perfbench is the simulator's benchmark. It runs one workload
// for a fixed host-time budget, checks that the simulated outputs are
// correct, and prints every metric by name and unit, ending with one
// JSON line:
//
//	bash perfbench/run.sh --workload detailed --seed 1 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics (host time, tracing off);
// --trace 1 reports the per-layer metrics from a traced run (CPU
// profile bucketed by layer, the simulator's obs phases, runtime/metrics
// and the benchmark's own spans). --steady N runs the workload N times
// on consecutive seeds and prints each end-to-end metric's median,
// quartiles and spread. --spec prints BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudsuite/internal/core"
	"cloudsuite/internal/obs"
)

const (
	// runSeconds is the measuring time of one run: four repetitions of
	// every job fit, and all runs of all workloads (see spec_test.go)
	// fit the time allowed for them with a margin.
	runSeconds = 36
	// minReps is the fewest repetitions of the job an untraced run
	// makes, so every time it reports is a median.
	minReps = 3
	// setupProbes is how many fresh processes time the set-up.
	setupProbes = 15
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: detailed, sampled-check or scale64")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", runSeconds, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steadyN = flag.Int("steady", 0, "run the workload N times on consecutive seeds and report each metric's spread")
		probe   = flag.Bool("setup-probe", false, "set up the workload and exit (used to time set-up)")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json")
	)
	flag.Parse()
	if *spec {
		b, err := specJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	switch {
	case *seconds < 1:
		return fail(fmt.Errorf("--seconds %d: must be at least 1", *seconds))
	case *trace != 0 && *trace != 1:
		return fail(fmt.Errorf("--trace %d: must be 0 or 1", *trace))
	case *probe:
		reqs, err := w.requests(*seed)
		if err != nil {
			return fail(err)
		}
		setUp(reqs)
		return 0
	case *steadyN > 0:
		if err := steady(w, *seed, *steadyN, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one execution of a workload's job.
type rep struct {
	passes [2]pass
	walls  [2]float64
	traces [2]*passTrace
	verify func(first, second *pass) error
	spans  [2]int  // span ids of the passes
	rssMB  float64 // resident high-water mark (VmHWM) over the repetition
}

// passTrace is what a traced pass records besides its result.
type passTrace struct {
	samples []sample
	profile []byte
	reg     obs.Snapshot
	gcCPU   float64 // seconds
	allocs  float64 // bytes
}

// workDir is where the benchmark keeps its build, checkpoint images and
// trace files: the build directory inside the checkout.
func workDir() (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// bench runs workload w for the given measuring time and returns its
// result: end-to-end metrics untraced, per-layer metrics traced.
func bench(w *workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	work, err := workDir()
	if err != nil {
		return nil, err
	}
	reqs, err := w.requests(seed)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	if !traced {
		if setupS, err = timeSetUp(w.name, seed); err != nil {
			return nil, err
		}
	}
	// Build every workload instance once before timing, so lazy
	// set-up stays out of the timed passes.
	setUp(reqs)

	fmt.Printf("perfbench %s seed=%d trace=%t\n", w.name, seed, traced)
	sp := newSpanLog()
	var baseline *rep // traced runs: one untraced repetition to compare with
	if traced {
		r, err := runRep(w, reqs, work, sp, false)
		if err != nil {
			return nil, err
		}
		baseline = &r
	}
	// Repeat until the next repetition would overrun the measuring
	// time, after the minimum count.
	fewest := minReps
	if traced {
		fewest = 1
	}
	var reps []rep
	start := time.Now()
	var last time.Duration
	for len(reps) < fewest || time.Since(start)+last <= seconds {
		repStart := time.Now()
		r, err := runRep(w, reqs, work, sp, traced)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		last = time.Since(repStart)
	}

	all := reps
	if baseline != nil {
		all = append([]rep{*baseline}, reps...)
	}
	want := ""
	switch seed {
	case defaultSeed:
		want = expectedDigest[w.name]
	case heldOutSeed:
		fmt.Println("  held-out seed: no committed digest, but it must run clean")
	}
	chk := checkReps(all, len(reqs), want)
	// Failures go to stderr too, so a caller that keeps only the
	// error stream still sees why the run failed.
	for _, p := range chk.problems {
		fmt.Println("  FAIL", p)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	for i, r := range all {
		fmt.Printf("  rep %d: %s %.3fs, %s %.3fs, peak %.1f MB\n", i, r.passes[0].label, r.walls[0], r.passes[1].label, r.walls[1], r.rssMB)
	}
	fmt.Printf("  digest %s (expected %q)\n", chk.digest, want)
	fmt.Printf("  failed_frac %g (%d of %d measurements)\n", float64(chk.failed)/float64(chk.attempted), chk.failed, chk.attempted)

	res := &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]value{}}
	var ms []metricValue
	if traced {
		ms, err = layerMetrics(reps, baseline, sp)
		if err == nil {
			err = writeTrace(work, w.name, seed, reps[len(reps)-1], sp)
		}
	} else {
		ms = endToEndMetrics(reps, setupS)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	return res, nil
}

// runRep executes the job once, each pass in turn, in a fresh
// checkpoint directory that is removed afterwards.
func runRep(w *workload, reqs []core.MeasureRequest, work string, sp *spanLog, traced bool) (rep, error) {
	tmp, err := os.MkdirTemp(work, "ckpt-")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(tmp)
	j := w.job(reqs, tmp)
	r := rep{verify: j.verify}
	id := sp.begin("repetition")
	defer sp.end(id)
	for i := range j.passes {
		// Each pass starts from a collected heap returned to the OS,
		// like a fresh process running it once; the high-water mark
		// starts there too, so it covers this repetition only.
		debug.FreeOSMemory()
		if i == 0 {
			if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
				return rep{}, fmt.Errorf("resetting the RSS high-water mark: %w", err)
			}
		}
		r.spans[i] = sp.begin(j.labels[i])
		r.passes[i], r.walls[i], r.traces[i], err = execPass(j.passes[i], traced, sp)
		sp.end(r.spans[i])
		if err != nil {
			return rep{}, err
		}
		r.passes[i].label = j.labels[i]
	}
	r.rssMB, err = peakRSS()
	return r, err
}

// execPass times one pass. A traced pass runs with the simulator's
// observer armed and under a CPU profile, between two runtime/metrics
// snapshots. The returned error is the benchmark's own; the pass's
// failures are in pass.err.
func execPass(fn passFunc, traced bool, sp *spanLog) (pass, float64, *passTrace, error) {
	if !traced {
		start := time.Now()
		p := callPass(fn, nil, sp)
		return p, time.Since(start).Seconds(), nil, nil
	}
	ob := obs.New()
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return pass{}, 0, nil, err
	}
	start := time.Now()
	p := callPass(fn, ob, sp)
	wall := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	after := readRuntime()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return pass{}, 0, nil, err
	}
	return p, wall, &passTrace{
		samples: samples,
		profile: prof.Bytes(),
		reg:     ob.Registry().Snapshot(),
		gcCPU:   after.gcCPU - before.gcCPU,
		allocs:  after.allocs - before.allocs,
	}, nil
}

// callPass runs a pass, turning a panic into the pass's error.
func callPass(fn passFunc, ob *obs.Observer, sp *spanLog) (p pass) {
	defer func() {
		if r := recover(); r != nil {
			p = pass{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return fn(ob, sp)
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// endToEndMetrics reports the untraced run: medians over repetitions.
// A median of per-repetition high-water marks, unlike the mark over
// the whole run, does not grow with the number of repetitions that fit.
func endToEndMetrics(reps []rep, setupS []float64) []metricValue {
	var first, second, rss []float64
	for _, r := range reps {
		first = append(first, r.walls[0])
		second = append(second, r.walls[1])
		rss = append(rss, r.rssMB)
	}
	runS := median(first)
	vals := map[string]float64{
		"run_s":           runS,
		"sim_insts_per_s": float64(reps[0].passes[0].stats.MeasuredInsts) / runS,
		"second_pass_s":   median(second),
		"setup_s":         median(setupS),
		"peak_rss_mb":     median(rss),
	}
	return tableOrder(endToEnd, vals)
}

// tableOrder lists vals in the order of the metric table, failing loud
// on a metric the table has and vals lacks.
func tableOrder(table []metric, vals map[string]float64) []metricValue {
	out := make([]metricValue, 0, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: no value for metric " + m.name)
		}
		out = append(out, metricValue{m.name, v, m.unit})
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setUp builds each distinct workload instance the requests use once:
// Bench.New, then Start with the request's thread count and seed, then
// the generators are closed.
func setUp(reqs []core.MeasureRequest) {
	type key struct {
		bench   string
		threads int
	}
	seen := map[key]bool{}
	for _, q := range reqs {
		threads := q.Options.Cores
		if q.Options.SMT {
			threads *= 2
		}
		k := key{q.Bench.Name, threads}
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, g := range q.Bench.New().Start(threads, q.Options.Seed) {
			g.Close()
		}
	}
}

// timeSetUp times set-up from process start: each probe is a fresh
// process that initializes its packages, builds every workload
// instance the job uses, and exits where measuring would begin.
func timeSetUp(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// peakRSS returns the process's resident-set high-water mark (VmHWM)
// in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type runtimeSnap struct{ gcCPU, allocs float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSnap{gcCPU: s[0].Value.Float64(), allocs: float64(s[1].Value.Uint64())}
}

// writeTrace writes the traced run's spans and the last repetition's
// CPU profiles next to the build, for go tool pprof.
func writeTrace(work, name string, seed int64, last rep, sp *spanLog) error {
	dir := filepath.Join(work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	for _, i := range []int{0, 1} {
		if err := os.WriteFile(base+"-"+last.passes[i].label+".pprof", last.traces[i].profile, 0o644); err != nil {
			return err
		}
	}
	if err := sp.writeFile(base + ".spans.json"); err != nil {
		return err
	}
	fmt.Printf("  trace written to %s.*\n", base)
	return nil
}
