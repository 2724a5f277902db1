package main

import (
	"bytes"
	"encoding/json"
)

// metric is one reported number. End-to-end metrics carry the bound by
// which a change may worsen them (a share of the parent's median);
// per-layer metrics carry the end-to-end metric and workload they
// should move, written down before anything is measured so that a
// later change can say which layer a gain came from.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd are measured with tracing off; every workload reports all
// of them. The host-time bounds are wide because host speed drifts by
// 10-40% over minutes on a shared 2-vCPU machine (the same seed ran
// sampled-check's cold pass in 4.0 s and 5.4 s minutes apart), which
// medians within a run cannot remove. peak_rss_mb, a median of
// per-repetition high-water marks, moves by up to 10% between
// processes on detailed's ~60 MB heap, even on the same seed. setup_s,
// a ~10 ms process start, gets the largest bound.
var endToEnd = []metric{
	{name: "run_s", unit: "s", better: "lower", bound: 0.24},
	{name: "sim_insts_per_s", unit: "1/s", better: "higher", bound: 0.24},
	{name: "second_pass_s", unit: "s", better: "lower", bound: 0.24},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.24},
}

// perLayer come from the traced run. CPU figures are per execution of
// the job's first pass unless the name says otherwise.
var perLayer = []metric{
	{"engine.cpu_s", "s", "lower", 0, "run_s and sim_insts_per_s on detailed; little on sampled-check"},
	{"engine.cpu_share", "ratio", "lower", 0, "run_s on detailed (largest layer there); a minority of the sampled-check cold pass"},
	{"engine.host_ns_per_cycle", "ns/cycle", "lower", 0, "sim_insts_per_s on detailed"},
	{"engine.sim_cycles", "cycles", "lower", 0, "nothing: simulated, exact per seed; a pure speed-up leaves it unchanged"},
	{"engine.ipc", "inst/cycle", "higher", 0, "nothing: simulated, exact per seed; a pure speed-up leaves it unchanged"},
	{"engine.stall_cycle_share", "ratio", "lower", 0, "nothing: simulated, exact per seed; explains idle-cycle skipping gains on detailed"},
	{"engine.timed_window_s", "s", "lower", 0, "run_s on detailed"},
	{"engine.sample_interval_s", "s", "lower", 0, "run_s and second_pass_s on sampled-check"},
	{"engine.detail_warm_s", "s", "lower", 0, "run_s and second_pass_s on sampled-check"},
	{"engine.func_warm_s", "s", "lower", 0, "run_s on sampled-check (cold pass)"},
	{"trace.cpu_s", "s", "lower", 0, "run_s on sampled-check; almost nothing on detailed"},
	{"trace.cpu_share", "ratio", "lower", 0, "run_s on sampled-check; almost nothing on detailed"},
	{"trace.gen_s", "s", "lower", 0, "run_s on sampled-check; almost nothing on detailed"},
	{"cache.cpu_s", "s", "lower", 0, "run_s on sampled-check (functional warming) and on scale64 (coherence fan-out)"},
	{"cache.cpu_share", "ratio", "lower", 0, "run_s on sampled-check and scale64"},
	{"cache.l1i_accesses", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.l1d_accesses", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.l2_accesses", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.llc_accesses", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.llc_misses", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.remote_socket_hits", "count", "lower", 0, "nothing: simulated, exact per seed; non-zero on scale64 and the split-socket checks"},
	{"cache.shared_rw_hits", "count", "lower", 0, "nothing: simulated, exact per seed"},
	{"cache.invariants_cpu_s", "s", "lower", 0, "second_pass_s (audited_run_s) on scale64; 0 on every other workload"},
	{"cache.invariants_cpu_share", "ratio", "lower", 0, "second_pass_s on scale64, where the checker dominates the audited pass's CPU"},
	{"prefetch.cpu_s", "s", "lower", 0, "run_s on sampled-check"},
	{"prefetch.useful_ratio", "ratio", "higher", 0, "nothing: simulated, exact per seed"},
	{"tlb.cpu_s", "s", "lower", 0, "run_s on sampled-check"},
	{"bpred.cpu_s", "s", "lower", 0, "run_s on sampled-check"},
	{"dram.cpu_s", "s", "lower", 0, "run_s on sampled-check"},
	{"dram.busy_cycles", "cycles", "lower", 0, "nothing: simulated, exact per seed"},
	{"checkpoint.saves", "count", "lower", 0, "run_s on sampled-check (both passes counted)"},
	{"checkpoint.disk_hits", "count", "higher", 0, "second_pass_s (forked_run_s) on sampled-check (both passes counted)"},
	{"checkpoint.memory_hits", "count", "higher", 0, "run_s on sampled-check (both passes counted)"},
	{"checkpoint.failures", "count", "lower", 0, "second_pass_s on sampled-check: a failed image means cold warming (both passes counted)"},
	{"checkpoint.image_bytes", "B", "lower", 0, "run_s (save) and second_pass_s (restore) on sampled-check"},
	{"checkpoint.cpu_s", "s", "lower", 0, "run_s (save) and second_pass_s (restore) on sampled-check (both passes counted)"},
	{"checkpoint.save_s", "s", "lower", 0, "run_s on sampled-check (both passes counted)"},
	{"checkpoint.restore_s", "s", "lower", 0, "second_pass_s (forked_run_s) on sampled-check (both passes counted)"},
	{"checkpoint.replay_s", "s", "lower", 0, "second_pass_s on sampled-check (proxy benches only; both passes counted)"},
	{"core.cpu_s", "s", "lower", 0, "run_s on every workload"},
	{"core.requests", "count", "lower", 0, "run_s on every workload"},
	{"core.runs", "count", "lower", 0, "run_s on every workload"},
	{"core.memo_hits", "count", "higher", 0, "run_s on every workload"},
	{"core.errors", "count", "lower", 0, "run_s on every workload: must stay 0"},
	{"core.measurements", "count", "lower", 0, "run_s on every workload: the span count behind the two figures below"},
	{"core.measure_s_p50", "s", "lower", 0, "run_s on every workload"},
	{"core.measure_s_max", "s", "lower", 0, "run_s on every workload (mcf on detailed)"},
	{"obs.cpu_s", "s", "lower", 0, "second_pass_s on detailed (the obs-armed series)"},
	{"runtime.cpu_s", "s", "lower", 0, "run_s and peak_rss_mb on every workload"},
	{"runtime.gc_cpu_s", "s", "lower", 0, "run_s and peak_rss_mb on every workload"},
	{"runtime.alloc_bytes_per_sim_inst", "B/inst", "lower", 0, "run_s and peak_rss_mb on every workload"},
	{"other.cpu_s", "s", "lower", 0, "nothing: profiled CPU outside the layer table"},
	{"other.cpu_share", "ratio", "lower", 0, "nothing: must stay at or below 0.05 (95% of CPU in named layers)"},
	{"obs.phase_coverage", "ratio", "higher", 0, "nothing: share of runner.measure_wall the engine phases explain"},
	{"obs.tracing_overhead_x", "x", "lower", 0, "nothing: traced run_s over untraced run_s"},
}

// specJSON renders BENCHMARK.json from the workload and metric tables.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
