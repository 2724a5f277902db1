package main

import (
	"errors"
	"fmt"

	"cloudsuite/internal/core"
	"cloudsuite/internal/obs"
)

const (
	// defaultSeed is the seed whose outputs are pinned by expectedDigest.
	defaultSeed = 1
	// heldOutSeed is kept back for later claims: no digest is committed
	// for it and it is not used while tuning a change, but it must run
	// clean (no errors, fork==cold, armed==unarmed).
	heldOutSeed = 2
	// auditEvery is scale64's invariant-check period in memory accesses.
	auditEvery = 5000
)

// expectedDigest pins every workload's first-pass outputs at
// defaultSeed: a hash over each measurement's counters and window
// cycles plus the claim list (see digest). A pure speed-up must leave
// these unchanged; a change that moves them changes what the simulator
// computes and must say so.
var expectedDigest = map[string]string{
	"detailed":      "456b58fafc203f35c0ac7840",
	"sampled-check": "2f8c087a3586eb76c5198285",
	"scale64":       "c2e97d1fe22cb8930db6e20c",
}

// pass is the outcome of one timed execution of a workload's job.
type pass struct {
	label  string
	ms     []*core.Measurement
	claims []core.Claim
	stats  core.RunnerStats
	ckpt   core.CheckpointStats
	err    error
}

// passFunc runs one pass. ob arms the simulator's observer; it is nil
// on untraced runs unless the pass arms one itself.
type passFunc func(ob *obs.Observer, sp *spanLog) pass

// job is one execution of a workload: two passes and an optional
// check that ties them together beyond digest equality.
type job struct {
	labels [2]string
	passes [2]passFunc
	verify func(first, second *pass) error
}

// workload is one benchmark workload: what its first pass measures and
// how its job runs. Every workload is closed-loop: one caller waits for
// each result from a single-worker core.Runner.
type workload struct {
	name string
	why  string
	// requests lists the measurements of the first pass; set-up builds
	// each distinct workload instance they use once.
	requests func(seed int64) ([]core.MeasureRequest, error)
	job      func(reqs []core.MeasureRequest, tmp string) job
}

var workloads = []*workload{
	{
		name: "detailed",
		why: "engine-bound: long contiguous windows on 4 cores over Web Search (+SMT), Media Streaming, TPC-C and mcf (68% idle cycles); " +
			"second pass arms internal/obs",
		requests: detailedRequests,
		job: func(reqs []core.MeasureRequest, _ string) job {
			return job{
				labels: [2]string{"unarmed", "obs-armed"},
				passes: [2]passFunc{
					measureEach(reqs),
					func(ob *obs.Observer, sp *spanLog) pass {
						if ob == nil {
							ob = obs.New()
						}
						return measureEach(reqs)(ob, sp)
					},
				},
			}
		},
	},
	{
		name: "sampled-check",
		why: "warming-bound: Validate (8 claims, 9 configurations) sampled; cold pass saves checkpoints, second pass forks each run from disk " +
			"(forked_run_s)",
		requests: func(seed int64) ([]core.MeasureRequest, error) { return validateRequests(checkOptions(seed)) },
		job:      checkJob,
	},
	{
		name: "scale64",
		why: "coherence-bound: Web Search on 4 sockets x 16 cores; second pass arms the invariant checker every 5000 accesses " +
			"(audited_run_s, the observer cost)",
		requests: func(seed int64) ([]core.MeasureRequest, error) {
			b, ok := core.FindBench("Web Search")
			if !ok {
				return nil, errors.New("bench Web Search not registered")
			}
			o := core.DefaultOptions()
			o.Seed = seed
			o.Sockets, o.CoresPerSocket, o.Cores = 4, 16, 64
			o.WarmupInsts, o.MeasureInsts = 60_000, 20_000
			return []core.MeasureRequest{{Bench: b, Options: o}}, nil
		},
		job: func(reqs []core.MeasureRequest, _ string) job {
			audited := append([]core.MeasureRequest(nil), reqs...)
			for i := range audited {
				audited[i].Options.InvariantChecks = auditEvery
			}
			return job{
				labels: [2]string{"unarmed", "audited"},
				passes: [2]passFunc{measureEach(reqs), measureEach(audited)},
			}
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// detailedRequests is the engine-bound mix: short warm-up, long
// contiguous windows. mcf idles most cycles, Web Search keeps the issue
// window full, and the SMT run times the round-robin across contexts.
func detailedRequests(seed int64) ([]core.MeasureRequest, error) {
	o := core.DefaultOptions()
	o.Seed = seed
	o.WarmupInsts, o.MeasureInsts = 50_000, 100_000
	smt := o
	smt.SMT = true
	return requestsFor([]namedOptions{
		{"Web Search", o},
		{"Web Search", smt},
		{"Media Streaming", o},
		{"TPC-C", o},
		{"SPECint (mcf)", o},
	})
}

// checkOptions is the sampled claim check: the Table-1 machine with
// interval sampling. The budgets are twice the default warm-up and a
// longer horizon: functional warming then dominates the cold pass, and
// every claim holds with a margin on each seed tried (at the default
// budgets Web Search's stall share, 45% at its threshold, fails the
// S4-stalls claim on some seeds).
func checkOptions(seed int64) core.Options {
	o := core.DefaultOptions()
	o.Seed = seed
	o.WarmupInsts, o.MeasureInsts = 800_000, 200_000
	o.Sampling = core.DefaultSampling()
	return o
}

// validateRequests repeats the configurations core.Validate measures,
// in its order. Validate returns only claims; re-requesting its
// configurations from the same Runner afterwards returns the cached
// measurements, and checkJob fails the pass if any of them misses the
// cache (this list has drifted from Validate's).
func validateRequests(o core.Options) ([]core.MeasureRequest, error) {
	smt := o
	smt.SMT = true
	pol := o
	if pol.Cores < 4 {
		pol.Cores = 4
	}
	pol6 := pol
	pol6.PolluteBytes = 6 << 20
	split := o
	split.SplitSockets = true
	return requestsFor([]namedOptions{
		{"Web Search", o},
		{"Data Serving", o},
		{"Media Streaming", o},
		{"PARSEC (blackscholes)", o},
		{"SPECint (bitops)", o},
		{"Data Serving", smt},
		{"Web Search", pol},
		{"Web Search", pol6},
		{"MapReduce", split},
		{"TPC-C", split},
	})
}

type namedOptions struct {
	bench string
	o     core.Options
}

func requestsFor(specs []namedOptions) ([]core.MeasureRequest, error) {
	reqs := make([]core.MeasureRequest, len(specs))
	for i, s := range specs {
		b, ok := core.FindBench(s.bench)
		if !ok {
			return nil, fmt.Errorf("bench %q not registered", s.bench)
		}
		reqs[i] = core.MeasureRequest{Bench: b, Options: s.o}
	}
	return reqs, nil
}

// measureEach measures the requests one after another through a
// single-worker Runner, one span per measurement.
func measureEach(reqs []core.MeasureRequest) passFunc {
	return func(ob *obs.Observer, sp *spanLog) pass {
		r := core.NewRunner(1)
		r.SetObserver(ob)
		var p pass
		for _, q := range reqs {
			id := sp.begin(measurePrefix + q.Bench.Name)
			m, err := r.MeasureBench(q.Bench, q.Options)
			sp.end(id)
			if err != nil {
				p.err = err
				return p
			}
			p.ms = append(p.ms, m)
		}
		p.stats = r.Stats()
		return p
	}
}

// checkJob runs Validate twice over one checkpoint directory: a cold
// pass that saves a warm image per configuration, then a pass through a
// new store on the same directory in which every run forks from disk.
func checkJob(reqs []core.MeasureRequest, tmp string) job {
	o := reqs[0].Options
	validate := func(ob *obs.Observer, sp *spanLog) pass {
		var p pass
		id := sp.begin("new checkpoint store")
		cs, err := core.NewCheckpointStore(tmp)
		sp.end(id)
		if err != nil {
			p.err = err
			return p
		}
		r := core.NewRunner(1)
		r.SetCheckpoints(cs)
		r.SetObserver(ob)
		r.SetProgress(sp.progress)
		if p.claims, p.err = r.Validate(o); p.err != nil {
			return p
		}
		p.stats, p.ckpt = r.Stats(), cs.Stats()
		r.SetProgress(nil)
		if p.ms, p.err = r.MeasureAll(reqs); p.err != nil {
			return p
		}
		if runs := r.Stats().Runs; runs != p.stats.Runs {
			p.err = fmt.Errorf("validateRequests ran %d configurations Validate did not measure", runs-p.stats.Runs)
		}
		return p
	}
	return job{
		labels: [2]string{"cold", "fork"},
		passes: [2]passFunc{validate, validate},
		verify: func(cold, fork *pass) error {
			switch {
			case cold.ckpt.Saves != cold.stats.Runs || cold.ckpt.Failures != 0:
				return fmt.Errorf("cold pass saved %d images for %d runs, %d store failures",
					cold.ckpt.Saves, cold.stats.Runs, cold.ckpt.Failures)
			case fork.ckpt.DiskHits != fork.stats.Runs || fork.ckpt.Saves != 0 || fork.ckpt.Failures != 0:
				return fmt.Errorf("fork pass: %d disk hits, %d saves, %d failures for %d runs",
					fork.ckpt.DiskHits, fork.ckpt.Saves, fork.ckpt.Failures, fork.stats.Runs)
			}
			return nil
		},
	}
}
