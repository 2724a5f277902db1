package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/trace"
)

// stepScenario is one run the skipping loop is checked on. threads is a
// constructor because generators are consumed by a run.
type stepScenario struct {
	name    string
	cfg     RunConfig
	threads func() []Thread
	idle    bool // memory-bound: most cycles must be skipped
}

func stepScenarios() []stepScenario {
	base := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		WarmupInsts: 5_000, MeasureInsts: 6_000, MaxCycles: 20_000_000,
	}
	small := base
	small.Core = CoreConfig{
		Width: 2, ROB: 48, RS: 16, LoadQ: 24, StoreQ: 16,
		MSHRs: 10, MispredictPenalty: 10,
		ALULatency: 1, MulLatency: 3, FPLatency: 4,
	}
	fewMSHRs := base
	fewMSHRs.Core.MSHRs = 2
	sampled := base
	sampled.MeasureInsts, sampled.Intervals, sampled.IntervalWarmInsts, sampled.DetailWarmInsts = 1_500, 4, 3_000, 800

	var code []trace.Inst
	for pc := uint64(0x40_0000); pc < 0x40_0000+4<<20; pc += 64 {
		code = append(code, trace.Inst{PC: pc, Op: trace.OpALU, DepA: 1}, trace.Inst{PC: pc + 4, Op: trace.OpBranch, Taken: true, Target: pc + 64})
	}
	finite := make([]trace.Inst, 3_000)
	for i := range finite {
		finite[i] = trace.Inst{PC: 0x400000, Op: trace.OpLoad, Addr: 0x4000_0000 + uint64(i)*4096, Size: 8, DepA: 1}
	}
	finite[0].DepA = 0

	return []stepScenario{
		{"pointer chase", base, func() []Thread {
			return []Thread{{Gen: loadStream(31, 256<<20, true, 50_000), Core: 0, Measured: true}}
		}, true},
		{"SMT chase groups", base, func() []Thread {
			return []Thread{
				{Gen: chaseGroups(32, trace.OpALU, 2000), Core: 0, Measured: true},
				{Gen: chaseGroups(32, trace.OpMul, 2000), Core: 0, Measured: true},
			}
		}, true},
		{"random mix on three cores with SMT", base, func() []Thread {
			return []Thread{
				{Gen: randomStream(33, 4000), Core: 0, Measured: true},
				{Gen: randomStream(34, 4000), Core: 0, Measured: true},
				{Gen: randomStream(35, 4000), Core: 1, Measured: true},
				{Gen: loadStream(36, 64<<20, true, 50_000), Core: 3, Measured: false},
			}
		}, false},
		{"48-entry ROB, 24-entry SMT windows", small, func() []Thread {
			return []Thread{
				{Gen: randomStream(37, 4000), Core: 0, Measured: true},
				{Gen: randomStream(38, 4000), Core: 0, Measured: true},
				{Gen: randomStream(39, 4000), Core: 1, Measured: true},
			}
		}, false},
		{"full super queue", fewMSHRs, func() []Thread {
			return []Thread{{Gen: randomStream(40, 4000), Core: 0, Measured: true}}
		}, false},
		{"sampled with detailed warming", sampled, func() []Thread {
			return []Thread{
				{Gen: loadStream(41, 256<<20, false, 50_000), Core: 0, Measured: true},
				{Gen: chaseGroups(42, trace.OpFP, 2000), Core: 1, Measured: true},
			}
		}, false},
		{"instruction misses", base, func() []Thread {
			return []Thread{{Gen: &trace.LoopGen{Insts: code}, Core: 0, Measured: true}}
		}, false},
		{"fetch buffer empty on an idle cycle", base, func() []Thread {
			return []Thread{{Gen: &smallBatches{g: missThenBranch(43), n: 4}, Core: 0, Measured: true}}
		}, false},
		{"finite stream drains", base, func() []Thread {
			return []Thread{
				{Gen: &trace.SliceGen{Insts: finite}, Core: 0, Measured: true},
				{Gen: aluStream(2, 1000), Core: 1, Measured: false},
			}
		}, false},
	}
}

// smallBatches hands out at most n instructions per pull, so the front
// end regularly empties its fetch buffer and must pull again on the
// next cycle.
type smallBatches struct {
	g trace.Generator
	n int
}

func (b *smallBatches) Next(out []trace.Inst) int { return b.g.Next(out[:min(len(out), b.n)]) }

// missThenBranch repeats, in groups of four: a missing load with three
// consumers, four more consumers, then a random branch. Fetched four at
// a time, the front end empties its buffer on the cycle it dispatches
// the second group, while everything in the window waits on the miss:
// only the pull on the next cycle brings in the branch.
func missThenBranch(seed int64) trace.Generator {
	rng := rand.New(rand.NewSource(seed))
	var insts []trace.Inst
	for g := 0; g < 500; g++ {
		insts = append(insts, trace.Inst{PC: 0x400000, Op: trace.OpLoad, Size: 8, Addr: 0x4000_0000 + uint64(rng.Int63n(256<<20/64))*64})
		for k := int32(1); k <= 7; k++ {
			insts = append(insts, trace.Inst{PC: 0x400000, Op: trace.OpALU, DepA: k})
		}
		insts = append(insts, trace.Inst{PC: 0x400000, Op: trace.OpBranch, Taken: rng.Intn(2) == 0, Target: 0x400000})
		for k := int32(9); k <= 11; k++ {
			insts = append(insts, trace.Inst{PC: 0x400000, Op: trace.OpALU, DepA: k})
		}
	}
	return &trace.LoopGen{Insts: insts}
}

// TestSkippingMatchesStepping runs every scenario twice, once stepping
// every core on every cycle and once skipping idle cycles, and requires
// identical counters, cycle counts, commit counts and intervals.
func TestSkippingMatchesStepping(t *testing.T) {
	for _, sc := range stepScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.cfg
			ref.stepEveryCycle = true
			want, err := Run(ref, sc.threads())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(sc.cfg, sc.threads())
			if err != nil {
				t.Fatal(err)
			}
			if want.SkippedCycles != 0 || want.SteppedCycles != want.Cycles {
				t.Fatalf("stepping every cycle skipped %d of %d cycles", want.SkippedCycles, want.Cycles)
			}
			if got.SteppedCycles+got.SkippedCycles != got.Cycles {
				t.Fatalf("ledger: %d stepped + %d skipped != %d cycles", got.SteppedCycles, got.SkippedCycles, got.Cycles)
			}
			if sc.idle && got.SkippedCycles < got.Cycles/2 {
				t.Fatalf("memory-bound run skipped only %d of %d cycles", got.SkippedCycles, got.Cycles)
			}
			got.SteppedCycles, got.SkippedCycles = want.SteppedCycles, want.SkippedCycles
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("skipping changed the result:\n got %+v\nwant %+v", got.Total, want.Total)
			}
		})
	}
}

// TestCycleLimitIsAnError: a window that needs more than MaxCycles
// cycles fails with ErrCycleLimit instead of returning a truncated
// window, and the limit trips on exactly the cycle it is exceeded.
func TestCycleLimitIsAnError(t *testing.T) {
	threads := func() []Thread {
		return []Thread{{Gen: loadStream(51, 256<<20, true, 50_000), Core: 0, Measured: true}}
	}
	cfg := RunConfig{Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(), MeasureInsts: 2_000}
	full, err := Run(cfg, threads())
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = full.Cycles
	exact, err := Run(cfg, threads())
	if err != nil {
		t.Fatalf("a window of exactly MaxCycles cycles failed: %v", err)
	}
	if !reflect.DeepEqual(exact, full) {
		t.Fatal("a limit the window stays within changed its result")
	}
	cfg.MaxCycles = full.Cycles - 1
	if _, err := Run(cfg, threads()); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("window one cycle over MaxCycles: err = %v, want ErrCycleLimit", err)
	}
	cfg.MaxCycles = 10
	if _, err := Run(cfg, threads()); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("tiny MaxCycles: err = %v, want ErrCycleLimit", err)
	}

	// A machine that can never dispatch (no load-queue entries) fails
	// too, with or without a limit, instead of spinning.
	cfg.Core.LoadQ = 0
	if _, err := Run(cfg, threads()); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("deadlocked core under MaxCycles: err = %v, want ErrCycleLimit", err)
	}
	cfg.MaxCycles = 0
	if _, err := Run(cfg, threads()); err == nil || !strings.Contains(err.Error(), "progress") {
		t.Fatalf("deadlocked core without MaxCycles: err = %v, want a no-progress error", err)
	}

	// The detailed-warming quantum of a sampled run has the same limit.
	sampled := RunConfig{
		Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(),
		MeasureInsts: 10, MaxCycles: 2_000,
		Intervals: 2, IntervalWarmInsts: 100, DetailWarmInsts: 5_000,
	}
	_, err = Run(sampled, threads())
	if !errors.Is(err, ErrCycleLimit) || !strings.Contains(err.Error(), "detailed warming") {
		t.Fatalf("detailed-warming quantum over MaxCycles: err = %v, want ErrCycleLimit", err)
	}
}

// TestWindowCapacity: a per-context window the ready bitmask cannot
// hold, or one with no entries at all, is a configuration error.
func TestWindowCapacity(t *testing.T) {
	run := func(rob, threads int) error {
		cfg := RunConfig{Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig(), MeasureInsts: 500, MaxCycles: 1_000_000}
		cfg.Core.ROB = rob
		var ts []Thread
		for i := 0; i < threads; i++ {
			ts = append(ts, Thread{Gen: aluStream(0, 100), Core: 0, Measured: true})
		}
		_, err := Run(cfg, ts)
		return err
	}
	if err := run(2*maxWindow, 1); err == nil || !strings.Contains(err.Error(), "windows") {
		t.Errorf("a %d-entry window was accepted (err %v)", 2*maxWindow, err)
	}
	if err := run(1, 2); err == nil {
		t.Error("a 1-entry ROB split over two threads was accepted")
	}
	if err := run(2*maxWindow, 2); err != nil {
		t.Errorf("two %d-entry SMT windows rejected: %v", maxWindow, err)
	}
}
