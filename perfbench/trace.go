package main

import (
	"errors"
	"strings"

	"cloudsuite/internal/obs"
)

// layerMetrics reports a traced run. CPU figures are per repetition,
// averaged over the traced repetitions; everything else comes from the
// first traced repetition (every repetition's digest is checked
// equal, so its simulated counts are everyone's). Figures
// describe the job's first pass, except checkpoint.* (both passes) and
// cache.invariants_* (the second pass, where scale64 arms the checker).
func layerMetrics(reps []rep, baseline *rep, sp *spanLog) ([]metricValue, error) {
	if len(reps) == 0 || baseline == nil {
		return nil, errors.New("traced run without repetitions")
	}
	n := float64(len(reps))
	var first, second []sample
	var walls []float64
	var gcCPU, allocs float64
	for _, r := range reps {
		first = append(first, r.traces[0].samples...)
		second = append(second, r.traces[1].samples...)
		walls = append(walls, r.walls[0])
		gcCPU += r.traces[0].gcCPU
		allocs += r.traces[0].allocs
	}
	a, b := attribute(first), attribute(second)
	both := attribute(append(first, second...))

	p0, p1 := &reps[0].passes[0], &reps[0].passes[1]
	reg0 := reps[0].traces[0].reg
	reg1 := reps[0].traces[1].reg
	phase := func(reg obs.Snapshot, name string) float64 {
		return float64(reg.Histograms["engine.phase."+name].SumNS) / 1e9
	}
	bothPhases := func(name string) float64 { return phase(reg0, name) + phase(reg1, name) }

	var cycles, coreCycles, commits, stalls float64
	var l1i, l1d, l2, llc, llcMiss, remote, sharedRW, prefIssued, prefUseful, dramBusy float64
	for _, m := range p0.ms {
		cycles += float64(m.WindowCycles)
		coreCycles += float64(m.Cycles)
		commits += float64(m.Commits())
		stalls += float64(m.StallCyclesUser + m.StallCyclesOS)
		l1i += float64(m.FetchL1IAccessUser + m.FetchL1IAccessOS)
		l1d += float64(m.L1DAccess)
		l2 += float64(m.L2Access)
		llc += float64(m.LLCAccess)
		llcMiss += float64(m.LLCMiss)
		remote += float64(m.RemoteSocketHit)
		sharedRW += float64(m.SharedRWHitUser + m.SharedRWHitOS)
		prefIssued += float64(m.PrefIssued)
		prefUseful += float64(m.PrefUseful)
		dramBusy += float64(m.DRAMBusyCycles)
	}

	var phaseNS int64
	for name, h := range reg0.Histograms {
		if strings.HasPrefix(name, "engine.phase.") {
			phaseNS += h.SumNS
		}
	}
	spans := sp.measurements(reps[0].spans[0])

	vals := map[string]float64{
		"engine.cpu_s":             a.cpuS("engine") / n,
		"engine.cpu_share":         a.share("engine"),
		"engine.host_ns_per_cycle": ratio(a.cpuS("engine")/n*1e9, cycles),
		"engine.sim_cycles":        cycles,
		"engine.ipc":               ratio(commits, coreCycles),
		"engine.stall_cycle_share": ratio(stalls, coreCycles),
		"engine.timed_window_s":    phase(reg0, "timed_window"),
		"engine.sample_interval_s": phase(reg0, "sample_interval"),
		"engine.detail_warm_s":     phase(reg0, "detail_warm"),
		"engine.func_warm_s":       phase(reg0, "func_warm"),

		"trace.cpu_s":     a.cpuS("trace") / n,
		"trace.cpu_share": a.share("trace"),
		"trace.gen_s":     phase(reg0, "trace_gen"),

		"cache.cpu_s":                a.cpuS("cache") / n,
		"cache.cpu_share":            a.share("cache"),
		"cache.l1i_accesses":         l1i,
		"cache.l1d_accesses":         l1d,
		"cache.l2_accesses":          l2,
		"cache.llc_accesses":         llc,
		"cache.llc_misses":           llcMiss,
		"cache.remote_socket_hits":   remote,
		"cache.shared_rw_hits":       sharedRW,
		"cache.invariants_cpu_s":     float64(a.invariantsNS+b.invariantsNS) / 1e9 / n,
		"cache.invariants_cpu_share": ratio(float64(b.invariantsNS), float64(b.totalNS)),

		"prefetch.cpu_s":        a.cpuS("prefetch") / n,
		"prefetch.useful_ratio": ratio(prefUseful, prefIssued),
		"tlb.cpu_s":             a.cpuS("tlb") / n,
		"bpred.cpu_s":           a.cpuS("bpred") / n,
		"dram.cpu_s":            a.cpuS("dram") / n,
		"dram.busy_cycles":      dramBusy,

		"checkpoint.saves":       float64(p0.ckpt.Saves + p1.ckpt.Saves),
		"checkpoint.disk_hits":   float64(p0.ckpt.DiskHits + p1.ckpt.DiskHits),
		"checkpoint.memory_hits": float64(p0.ckpt.MemoryHits + p1.ckpt.MemoryHits),
		"checkpoint.failures":    float64(p0.ckpt.Failures + p1.ckpt.Failures),
		"checkpoint.image_bytes": float64(reg0.Counters["ckpt.save_bytes"] + reg1.Counters["ckpt.save_bytes"]),
		"checkpoint.cpu_s":       both.cpuS("checkpoint") / n,
		"checkpoint.save_s":      bothPhases("ckpt_save"),
		"checkpoint.restore_s":   bothPhases("ckpt_restore"),
		"checkpoint.replay_s":    bothPhases("ckpt_replay"),

		"core.cpu_s":         a.cpuS("core") / n,
		"core.requests":      float64(p0.stats.Requests),
		"core.runs":          float64(p0.stats.Runs),
		"core.memo_hits":     float64(p0.stats.CacheHits),
		"core.errors":        float64(p0.stats.Errors),
		"core.measurements":  float64(len(spans)),
		"core.measure_s_p50": median(spans),
		"core.measure_s_max": maxOf(spans),

		"obs.cpu_s":                        a.cpuS("obs") / n,
		"runtime.cpu_s":                    a.cpuS("runtime") / n,
		"runtime.gc_cpu_s":                 gcCPU / n,
		"runtime.alloc_bytes_per_sim_inst": ratio(allocs/n, float64(p0.stats.MeasuredInsts)),
		"other.cpu_s":                      a.cpuS("other") / n,
		"other.cpu_share":                  a.share("other"),
		"obs.phase_coverage":               ratio(float64(phaseNS), float64(reg0.Histograms["runner.measure_wall"].SumNS)),
		"obs.tracing_overhead_x":           ratio(median(walls), baseline.walls[0]),
	}
	return tableOrder(perLayer, vals), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
