// Package engine implements the cycle-approximate out-of-order core
// model and the chip-level simulation loop. Together with the memory
// system (internal/sim/cache) it is the stand-in for the Xeon X5670 of
// Table 1: 4-wide issue and retire, a 128-entry reorder buffer, 36
// reservation stations, 48/32-entry load/store queues, and optional
// two-way simultaneous multi-threading.
//
// The model tracks what the paper's counters measure — commit slots,
// stall cycles and their user/OS attribution, super-queue (off-core
// request) occupancy for memory cycles and MLP, branch mispredictions,
// and all cache-hierarchy events — without simulating wrong-path
// execution or detailed scheduler ports. Section 3.1's measurement
// definitions are implemented verbatim in the cycle loop.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/bpred"
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/counters"
	"cloudsuite/internal/sim/tlb"
	"cloudsuite/internal/trace"
)

// CoreConfig sizes one core (Table 1 values by default).
type CoreConfig struct {
	// Width is the issue/retire width.
	Width int
	// ROB is the reorder-buffer capacity (shared between SMT contexts).
	ROB int
	// RS is the reservation-station count.
	RS int
	// LoadQ and StoreQ are load/store queue capacities.
	LoadQ, StoreQ int
	// MSHRs is the super-queue size: the maximum number of outstanding
	// L1 data misses.
	MSHRs int
	// MispredictPenalty is the front-end refill time after a resolved
	// mispredicted branch.
	MispredictPenalty int
	// ALULatency, MulLatency, FPLatency are execution latencies.
	ALULatency, MulLatency, FPLatency int
}

// DefaultCoreConfig returns the Table-1 core: 4-wide, 128-entry ROB,
// 36 reservation stations, 48/32 load/store buffers.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		Width: 4, ROB: 128, RS: 36, LoadQ: 48, StoreQ: 32,
		MSHRs: 16, MispredictPenalty: 14,
		ALULatency: 1, MulLatency: 3, FPLatency: 4,
	}
}

// Thread binds an instruction stream to a core. Placing two threads on
// the same core models SMT.
type Thread struct {
	// Gen produces the thread's dynamic instruction stream.
	Gen trace.Generator
	// Core is the global core id the thread runs on.
	Core int
	// Measured threads count toward the measurement-window stop
	// condition; helper threads (e.g. cache polluters) do not.
	Measured bool
}

// RunConfig configures one simulation.
type RunConfig struct {
	Core CoreConfig
	Mem  cache.SystemConfig
	// WarmupInsts is the per-thread functional warm-up length: caches,
	// TLBs and predictors are trained without timing, mirroring the
	// paper's ramp-up period before the measurement window.
	WarmupInsts int64
	// MeasureInsts is the per-measured-thread instruction budget of each
	// timed window (the whole measurement in contiguous mode, one
	// interval in sampled mode). Must be positive.
	MeasureInsts int64
	// MaxCycles bounds each timed window and each detailed-warming
	// quantum as a safety net (0 = no bound). A run that reaches it fails
	// with an error wrapping ErrCycleLimit rather than report a
	// truncated window.
	MaxCycles int64

	// Intervals selects SMARTS-style interval sampling when >= 1: the
	// run executes Intervals timed windows of MeasureInsts each, every
	// window after the first preceded by IntervalWarmInsts of functional
	// warming (caches, TLBs and predictors updated, counters frozen).
	// Per-window counter deltas land in Result.Intervals. 0 runs the
	// classic single contiguous window.
	Intervals int
	// IntervalWarmInsts is the per-thread functional-warming budget
	// between consecutive measurement intervals.
	IntervalWarmInsts int64
	// DetailWarmInsts, in sampled mode, runs an aggregate quantum of
	// DetailWarmInsts x measured-threads through the detailed timing
	// model immediately before each window's counters are snapshotted:
	// the window then opens on steady-state pipeline occupancy instead
	// of the commit burst a functionally-refilled window would produce.
	DetailWarmInsts int64
	// StopSampling, when non-nil, is consulted after each completed
	// interval with the windows measured so far; returning true ends the
	// run early (adaptive sampling). The callback sees deterministic
	// inputs, so early stopping keeps runs bit-reproducible per seed.
	StopSampling func(done []IntervalResult) bool

	// Checkpoint, when non-nil, is invoked once at the warm->measure
	// boundary (after WarmupInsts of functional warming, before the
	// first timed window) with a snapshot of the complete simulated-
	// machine and generator state: a live image that restores by a pure
	// load. Checkpointing needs SaveShared, LoadShared and serializable
	// generators on every thread; a run without them fails before
	// warming. It is not invoked on restored runs. The callback runs on
	// the simulation goroutine; a slow callback delays the measurement
	// but cannot change its result.
	Checkpoint func(*checkpoint.Snapshot)
	// SaveShared and LoadShared, when non-nil, serialize and restore
	// the workload's shared structures (data-store contents, kernel
	// state, allocator cursors — everything the per-thread generators
	// reference but do not own). Checkpoint and Restore require both.
	// LoadShared must accept exactly what SaveShared wrote (signatures
	// match workloads.Stateful; errors flow through the Reader).
	SaveShared func(*checkpoint.Writer)
	LoadShared func(*checkpoint.Reader)
	// CheckpointKey is the identity string recorded in snapshots taken
	// by this run; restore-side caches use it to name the warm-relevant
	// configuration the image belongs to.
	CheckpointKey string
	// Restore, when non-nil, starts the run from the given warm
	// snapshot instead of warming from cold, by a pure load: machine
	// state, workload shared state (via LoadShared), and every thread's
	// generator state deserialize directly, with no instruction replay.
	// The snapshot must come from a run with identical warm-relevant
	// configuration (machine, threads, and WarmupInsts); mismatches
	// fail with an error. A restored run is byte-identical to the warm
	// run it forked from.
	Restore *checkpoint.Snapshot

	// CheckInvariantsEvery, when positive, arms the memory system's
	// coherence invariant checker on every n-th access (1 = every
	// access). A violation panics. Checking is a pure observer: it
	// never changes a measurement, only vetoes an incoherent one, so
	// smoke runs at new scales can assert the directory's correctness
	// in-line.
	CheckInvariantsEvery int

	// stepEveryCycle disables idle-cycle skipping: every core is stepped
	// on every cycle. Tests use it as the reference the skipping loop
	// must match counter for counter.
	stepEveryCycle bool

	// Obs, when non-nil, observes the run: wall time is attributed to
	// phases (functional warming, detailed warming, timed windows,
	// trace generation, checkpoint save/restore) in the
	// observer's registry, and coarse spans land on the run's trace
	// track. Observation is a pure observer — it reads the wall clock
	// and writes only observer state, so an armed run is byte-identical
	// to an unarmed one (differential-tested). Attribution is exclusive
	// at phase boundaries only: the per-cycle simulation loop never
	// touches it.
	Obs *obs.RunObs
}

// IntervalResult is one timed measurement window of a sampled run: the
// per-core counter deltas of that window only (functional-warming
// activity between windows is excluded by construction).
type IntervalResult struct {
	// PerCore holds each used core's counter delta over this window,
	// indexed by global core id (nil for unused cores). DRAM busy/span
	// fields are zeroed here; the chip-wide values are below.
	PerCore []*counters.Counters
	// Cycles is this window's length in cycles.
	Cycles int64
	// DRAMBusyCycles is the chip-wide DRAM busy-cycle delta of this
	// window (summed over channels and sockets).
	DRAMBusyCycles uint64
}

// Result carries the outcome of a run.
type Result struct {
	// Total sums the per-core counter blocks of all cores that ran a
	// measured or helper thread.
	Total counters.Counters
	// PerCore holds each used core's counter block, indexed by global
	// core id (nil for unused cores).
	PerCore []*counters.Counters
	// PerThread holds committed-instruction counts per thread.
	PerThread []uint64
	// Cycles is the timed length in cycles (summed over windows in
	// sampled mode).
	Cycles int64
	// Intervals holds the per-window deltas of a sampled run (nil in
	// contiguous mode). Total and PerCore are their sums.
	Intervals []IntervalResult
	// SteppedCycles and SkippedCycles split Cycles by what the stepping
	// loop did with each cycle: a stepped cycle ran at least one core's
	// pipeline, a skipped one was jumped over because no core could act
	// in it. SteppedCycles + SkippedCycles == Cycles.
	SteppedCycles, SkippedCycles int64
}

// ErrCycleLimit is wrapped by the error Run returns when a timed window
// or a detailed-warming quantum reaches RunConfig.MaxCycles.
//
//simlint:ok globalrand immutable sentinel error, compared with errors.Is
var ErrCycleLimit = errors.New("engine: cycle limit reached")

// readyWords sizes each context's ready bitmask; maxWindow, the largest
// per-context window it holds, bounds ROB / contexts-per-core.
const (
	readyWords = 2
	maxWindow  = 64 * readyWords
)

// never is the wake time of a core or context that waits on no clock.
const never = int64(math.MaxInt64)

const (
	stWaiting uint8 = iota
	stIssued
)

// entry is one window slot. An entry waits until its producers — the
// in-window instructions its DepA/DepB name — have issued; from then on
// readyAt, the latest of their completion cycles, is the first cycle it
// may issue. Until then it sits on each unissued producer's consumer
// list: waiters heads the list of an entry's consumers, and next links
// an entry into the lists of its (at most two) producers. A list node is
// slot<<1|dep + 1, so 0 ends a list.
type entry struct {
	inst    trace.Inst
	doneAt  int64
	readyAt int64
	waiters int32
	next    [2]int32
	pending uint8 // producers not yet issued
	status  uint8
}

type context struct {
	gen      trace.Generator
	buf      []trace.Inst
	bufPos   int
	bufLen   int
	eof      bool
	measured bool
	tid      int

	window  []entry
	head    int
	tail    int
	count   int
	baseSeq int64 // dynamic seq of window head

	// ready marks, by slot, the waiting entries whose producers have all
	// issued: only they can issue, oldest first from head. minReady is a
	// lower bound on the cycle at which any of them can issue; the issue
	// stage skips the context while minReady lies in the future.
	ready    [readyWords]uint64
	minReady int64

	fetchBlockedUntil int64
	imissUntil        int64 // off-core or L2 instruction-stall window
	redirectUntil     int64
	pendingBranch     int64 // absolute seq of unresolved mispredict, -1
	lastFetchLine     uint64
	lastFetchPage     uint64
	lastMode          bool // kernel flag of last dispatched inst
	committed         uint64
	committedUser     uint64

	// Functional-warming fetch state, kept across warming phases so a
	// sampled run's later warm intervals do not re-touch lines the
	// stream already sits on.
	warmLine uint64
	warmPage uint64

	// ro observes batch pulls: time inside gen.Next is carved out of
	// the ambient phase and attributed to trace generation. Nil when
	// observability is disarmed (the nil check costs once per
	// 4096-instruction batch, never per instruction).
	ro *obs.RunObs
}

type core struct {
	id   int
	cfg  CoreConfig
	ctxs []*context
	bp   *bpred.Predictor
	tlbs *tlb.Hierarchy

	rsUsed int
	lqUsed int
	sqUsed int

	superQ  []int64 // completion times of outstanding L1-D misses
	offcore []int64 // completion times of outstanding off-core data reqs
	tlbBusy int64

	nextCtx int // round-robin pointer for SMT fairness

	// The stepping loop runs a core only on cycles it can act in: wake is
	// the next such cycle and last the latest cycle already accounted in
	// its counters (stepped, or idle and caught up in bulk).
	wake, last int64
}

func (c *context) peek() (*trace.Inst, bool) {
	if c.bufPos == c.bufLen {
		if c.eof {
			return nil, false
		}
		if c.ro != nil {
			prev := c.ro.Enter(obs.PhaseTraceGen)
			c.bufLen = c.gen.Next(c.buf)
			c.ro.Enter(prev)
		} else {
			c.bufLen = c.gen.Next(c.buf)
		}
		c.bufPos = 0
		if c.bufLen == 0 {
			c.eof = true
			return nil, false
		}
	}
	return &c.buf[c.bufPos], true
}

func (c *context) advance() { c.bufPos++ }

// slotOf returns the window slot of the in-window instruction with
// dynamic sequence number seq. Windows need not be a power of two (the
// scale-out core's 48-entry ROB gives 24-entry SMT windows), so the wrap
// is a conditional subtract.
func (c *context) slotOf(seq int64) int {
	i := c.head + int(seq-c.baseSeq)
	if i >= len(c.window) {
		i -= len(c.window)
	}
	return i
}

// link records that the entry at slot, dynamic sequence seq, consumes
// the value produced d instructions earlier, as its dependence k. A
// committed or issued producer only bounds readyAt; an unissued one
// takes the entry onto its consumer list.
func (c *context) link(slot, k int, d int32, seq int64) {
	p := seq - int64(d)
	if d == 0 || p < c.baseSeq {
		return // no dependence, or producer already committed
	}
	e, pe := &c.window[slot], &c.window[c.slotOf(p)]
	if pe.status != stWaiting {
		e.readyAt = max(e.readyAt, pe.doneAt)
		return
	}
	e.next[k] = pe.waiters
	pe.waiters = int32(slot<<1|k) + 1
	e.pending++
}

// markReady adds the entry at slot, whose producers have all issued, to
// the ready set.
func (c *context) markReady(slot int) {
	c.ready[slot>>6] |= 1 << (slot & 63)
	c.minReady = min(c.minReady, c.window[slot].readyAt)
}

// wakeConsumers passes the completion cycle of the just-issued entry e to
// every entry on its consumer list, readying those it was the last
// unissued producer of.
func (c *context) wakeConsumers(e *entry) {
	for node := e.waiters; node != 0; {
		slot, k := int(node-1)>>1, (node-1)&1
		ce := &c.window[slot]
		node = ce.next[k]
		ce.readyAt = max(ce.readyAt, e.doneAt)
		if ce.pending--; ce.pending == 0 {
			c.markReady(slot)
		}
	}
	e.waiters = 0
}

// Run simulates threads under cfg and returns the measured counters.
func Run(cfg RunConfig, threads []Thread) (*Result, error) {
	if len(threads) == 0 {
		return nil, errors.New("engine: no threads")
	}
	// Budget guards: a zero or negative measured budget would convert to
	// a huge uint64 commit target and spin the timed loop until the trace
	// ends (never, for the suite's unbounded generators).
	if cfg.MeasureInsts <= 0 {
		return nil, fmt.Errorf("engine: MeasureInsts %d must be positive", cfg.MeasureInsts)
	}
	if cfg.WarmupInsts < 0 {
		return nil, fmt.Errorf("engine: WarmupInsts %d must be >= 0", cfg.WarmupInsts)
	}
	if cfg.Intervals < 0 || cfg.IntervalWarmInsts < 0 || cfg.DetailWarmInsts < 0 {
		return nil, fmt.Errorf("engine: sampling schedule (%d intervals, %d warm insts, %d detail insts) must be non-negative",
			cfg.Intervals, cfg.IntervalWarmInsts, cfg.DetailWarmInsts)
	}
	if cfg.Core.Width == 0 {
		cfg.Core = DefaultCoreConfig()
	}
	// An entirely-unspecified core grid selects the Table-1 machine; a
	// partially- or badly-specified one is an error, not a silent
	// fallback.
	if cfg.Mem.Sockets == 0 && cfg.Mem.CoresPerSocket == 0 {
		cfg.Mem = cache.DefaultSystemConfig()
	}
	if err := cfg.Mem.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	mem := cache.NewSystem(cfg.Mem)
	if cfg.CheckInvariantsEvery > 0 {
		mem.EnableInvariantChecks(cfg.CheckInvariantsEvery)
	}

	perCore := map[int][]int{} // core id -> indices into threads
	for i, t := range threads {
		if t.Core < 0 || t.Core >= cfg.Mem.TotalCores() {
			return nil, fmt.Errorf("engine: thread core %d out of range (%d cores)", t.Core, cfg.Mem.TotalCores())
		}
		perCore[t.Core] = append(perCore[t.Core], i)
		if len(perCore[t.Core]) > 2 {
			return nil, fmt.Errorf("engine: more than two threads on core %d", t.Core)
		}
	}

	var cores []*core
	for id := 0; id < cfg.Mem.TotalCores(); id++ {
		ts, ok := perCore[id]
		if !ok {
			continue
		}
		winPer := cfg.Core.ROB / len(ts)
		if winPer < 1 || winPer > maxWindow {
			return nil, fmt.Errorf("engine: a %d-entry ROB shared by %d threads gives %d-entry windows; the issue stage holds 1 to %d per thread",
				cfg.Core.ROB, len(ts), winPer, maxWindow)
		}
		co := &core{id: id, cfg: cfg.Core, bp: bpred.New(bpred.DefaultConfig()), tlbs: tlb.NewHierarchy()}
		for _, ti := range ts {
			t := threads[ti]
			ctx := &context{
				gen: t.Gen, buf: make([]trace.Inst, 4096),
				measured: t.Measured, tid: ti,
				window:        make([]entry, winPer),
				pendingBranch: -1,
				ro:            cfg.Obs,
			}
			co.ctxs = append(co.ctxs, ctx)
		}
		cores = append(cores, co)
	}

	// Functional warm-up: stream instructions through caches, TLBs and
	// the branch predictor with a coarse pseudo-clock, then snapshot
	// counters so the measured windows report deltas only. A sampled run
	// (cfg.Intervals >= 1) repeats the warm/measure alternation per
	// interval; the contiguous mode is the one-window special case of
	// the same loop, cycle-for-cycle identical to the pre-sampling
	// engine. A restored run skips warming entirely: the warmed machine
	// and generator state load from the snapshot.
	clock := int64(0)
	if cfg.Restore != nil {
		// Load the warm image instead of warming; the whole restore is
		// ckpt_restore.
		span := cfg.Obs.SpanStart()
		prev := cfg.Obs.Enter(obs.PhaseCkptRestore)
		err := restoreRun(cfg.Restore, cfg, cores, mem, &clock)
		cfg.Obs.SpanEnd("ckpt-restore", span)
		cfg.Obs.Enter(prev)
		if err != nil {
			return nil, err
		}
	} else {
		if cfg.Checkpoint != nil {
			if err := checkSaveable(cfg, cores); err != nil {
				return nil, fmt.Errorf("engine: cannot checkpoint: %w", err)
			}
		}
		span := cfg.Obs.SpanStart()
		prev := cfg.Obs.Enter(obs.PhaseFuncWarm)
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				co.warmThread(ctx, mem, cfg.WarmupInsts, &clock)
			}
		}
		cfg.Obs.SpanEnd("warm", span)
		if cfg.Checkpoint != nil {
			span = cfg.Obs.SpanStart()
			cfg.Obs.Enter(obs.PhaseCkptSave)
			cfg.Checkpoint(saveMachine(cfg, clock, cores, mem))
			cfg.Obs.SpanEnd("ckpt-save", span)
		}
		cfg.Obs.Enter(prev)
	}

	nWindows := cfg.Intervals
	if nWindows < 1 {
		nWindows = 1
	}
	nMeasured := 0
	for _, t := range threads {
		if t.Measured {
			nMeasured++
		}
	}
	totalCores := cfg.Mem.TotalCores()
	res := &Result{
		PerCore:   make([]*counters.Counters, totalCores),
		PerThread: make([]uint64, len(threads)),
	}
	totals := make([]counters.Counters, totalCores)
	snapshots := make([]counters.Counters, totalCores)
	var totalBusy uint64

	windowPhase := obs.PhaseTimedWindow
	windowSpan := "window"
	if cfg.Intervals >= 1 {
		windowPhase = obs.PhaseSampleInterval
		windowSpan = "interval"
	}
	for iv := 0; iv < nWindows; iv++ {
		if iv > 0 {
			span := cfg.Obs.SpanStart()
			prev := cfg.Obs.Enter(obs.PhaseFuncWarm)
			for _, co := range cores {
				for _, ctx := range co.ctxs {
					co.warmThread(ctx, mem, cfg.IntervalWarmInsts, &clock)
				}
			}
			cfg.Obs.Enter(prev)
			cfg.Obs.SpanEnd("interval-warm", span)
		}
		if cfg.Intervals >= 1 && cfg.DetailWarmInsts > 0 {
			// Detailed warming: execute a pre-window quantum under full
			// timing before the snapshot, so the measured window starts
			// from steady-state pipeline state.
			span := cfg.Obs.SpanStart()
			prev := cfg.Obs.Enter(obs.PhaseDetailWarm)
			var err error
			if done := quantumCommitted(cores, uint64(cfg.DetailWarmInsts)*uint64(nMeasured)); !done() {
				clock, _, err = stepCycles(cores, mem, cfg, clock, done)
			}
			cfg.Obs.Enter(prev)
			cfg.Obs.SpanEnd("detail-warm", span)
			if err != nil {
				return nil, fmt.Errorf("detailed warming before window %d: %w", iv, err)
			}
		}
		// Window stop condition. Contiguous mode preserves the paper's
		// per-thread contract: the window ends when every measured thread
		// has committed its budget. Sampled windows instead measure a
		// chip-wide instruction quantum (the SMARTS sampling unit):
		// MeasureInsts x measured-threads committed in aggregate. A
		// per-thread budget would overshoot badly on short windows when
		// thread progress is uneven (e.g. split-socket runs) — the fast
		// threads keep committing until the slowest reaches its budget,
		// once per interval.
		for _, co := range cores {
			snapshots[co.id] = *mem.Ctr(co.id)
		}
		done := budgetsCommitted(cores, uint64(cfg.MeasureInsts))
		if cfg.Intervals >= 1 {
			done = quantumCommitted(cores, uint64(cfg.MeasureInsts)*uint64(nMeasured))
		}
		mem.DRAMSetSpanStart(clock)
		mem.DRAMResetQueues(clock)
		dramBusyStart := mem.DRAMBusyCycles()

		wspan := cfg.Obs.SpanStart()
		wprev := cfg.Obs.Enter(windowPhase)
		start := clock
		now, stepped, err := stepCycles(cores, mem, cfg, start, done)
		cfg.Obs.Enter(wprev)
		cfg.Obs.SpanEnd(windowSpan, wspan)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", windowSpan, iv, err)
		}
		clock = now
		res.Cycles += now - start
		res.SteppedCycles += stepped
		res.SkippedCycles += now - start - stepped

		busy := mem.DRAMBusyCycles() - dramBusyStart
		totalBusy += busy
		window := IntervalResult{
			PerCore:        make([]*counters.Counters, totalCores),
			Cycles:         now - start,
			DRAMBusyCycles: busy,
		}
		drainedAll := true
		for _, co := range cores {
			d := mem.Ctr(co.id).Sub(&snapshots[co.id])
			d.DRAMBusyCycles = 0 // chip-wide; reported per window and in Total
			d.DRAMTotalCycles = 0
			window.PerCore[co.id] = &d
			totals[co.id].Add(&d)
			for _, ctx := range co.ctxs {
				res.PerThread[ctx.tid] = ctx.committed
				if ctx.measured && !ctx.drained() {
					drainedAll = false
				}
			}
		}
		if cfg.Intervals >= 1 {
			res.Intervals = append(res.Intervals, window)
		}
		if drainedAll {
			break // finite traces: no instructions left to sample
		}
		if cfg.StopSampling != nil && cfg.StopSampling(res.Intervals) {
			break
		}
	}

	for _, co := range cores {
		t := totals[co.id]
		res.PerCore[co.id] = &t
		res.Total.Add(&t)
	}
	// DRAM busy/span are chip-wide quantities, not per-core sums.
	res.Total.DRAMBusyCycles = totalBusy
	res.Total.DRAMTotalCycles = uint64(res.Cycles)
	res.Total.DRAMChannels = uint64(mem.DRAMTotalChannels())
	return res, nil
}

// stepCycles advances the chip from cycle clock until done, consulted
// after every stepped cycle, reports true, and returns that cycle and
// how many cycles it stepped. Each cycle runs only the cores due in it,
// in core-id order: a core whose pipeline cannot act before its wake
// cycle sleeps, and its idle cycles are added to its counters in bulk
// when it next steps and before returning, exactly as stepping them one
// by one would have. done changes only when a core commits, so it cannot
// flip inside a skipped span. Counter effects land in the live counter
// blocks; callers delimit windows by snapshotting around the call. A
// run of more than MaxCycles cycles fails with ErrCycleLimit on the
// cycle the limit is first exceeded.
func stepCycles(cores []*core, mem *cache.System, cfg RunConfig, clock int64, done func() bool) (now, stepped int64, err error) {
	for _, co := range cores {
		co.wake, co.last = clock+1, clock
	}
	for now = clock; ; {
		next := never
		for _, co := range cores {
			next = min(next, co.wake)
		}
		if cfg.MaxCycles > 0 && next-clock > cfg.MaxCycles {
			return 0, 0, fmt.Errorf("%w: no stop after %d cycles", ErrCycleLimit, cfg.MaxCycles)
		}
		if next == never {
			return 0, 0, fmt.Errorf("engine: no core can make progress after cycle %d", now)
		}
		now = next
		stepped++
		for _, co := range cores {
			if co.wake != now {
				continue
			}
			co.catchUp(now-1, mem)
			co.cycle(now, mem, cfg)
			co.last = now
			co.wake = now + 1
			if !cfg.stepEveryCycle {
				co.wake = co.nextWake(now)
			}
		}
		if done() {
			break
		}
	}
	for _, co := range cores {
		co.catchUp(now, mem)
	}
	return now, stepped, nil
}

// budgetsCommitted is the contiguous window's stop condition: every
// measured thread has committed budget more instructions than it had at
// the call, or drained.
func budgetsCommitted(cores []*core, budget uint64) func() bool {
	var targets []uint64
	for _, co := range cores {
		for _, ctx := range co.ctxs {
			targets = append(targets, ctx.committed+budget)
		}
	}
	return func() bool {
		i := 0
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				if ctx.measured && ctx.committed < targets[i] && !ctx.drained() {
					return false
				}
				i++
			}
		}
		return true
	}
}

// quantumCommitted is the stop condition of a sampled window or a
// detailed-warming quantum: the measured threads have committed quantum
// more instructions in aggregate than they had at the call, or all have
// drained.
func quantumCommitted(cores []*core, quantum uint64) func() bool {
	sum := func() (n uint64, live bool) {
		for _, co := range cores {
			for _, ctx := range co.ctxs {
				if ctx.measured {
					n += ctx.committed
					live = live || !ctx.drained()
				}
			}
		}
		return n, live
	}
	goal, _ := sum()
	goal += quantum
	return func() bool {
		n, live := sum()
		return n >= goal || !live
	}
}

// warmThread streams up to insts instructions of ctx through the
// caches, TLBs, and branch predictor with a coarse pseudo-clock and no
// timing: microarchitectural state observes every instruction while the
// measured windows' counter deltas exclude this activity (functional
// warming). The shared clock advances so DRAM-queue and span bookkeeping
// stay ordered with the timed windows around it.
func (co *core) warmThread(ctx *context, mem *cache.System, insts int64, clock *int64) {
	for fetched := int64(0); fetched < insts; fetched++ {
		in, ok := ctx.peek()
		if !ok {
			return
		}
		line := in.PC >> cache.LineShift
		if line != ctx.warmLine {
			page := in.PC >> 12
			if page != ctx.warmPage {
				co.tlbs.TranslateI(in.PC)
				ctx.warmPage = page
			}
			mem.FetchInstr(co.id, in.PC, *clock, in.Kernel)
			ctx.warmLine = line
		}
		switch in.Op {
		case trace.OpLoad, trace.OpStore:
			co.tlbs.TranslateD(in.Addr)
			mem.AccessData(co.id, in.Addr, in.Op == trace.OpStore, in.Kernel, *clock)
		case trace.OpBranch:
			co.bp.Update(in.PC, in.Taken, in.Target)
		}
		ctx.advance()
		*clock += 2
	}
}

// drained reports whether the context has no more work: stream ended and
// window empty.
func (c *context) drained() bool { return c.eof && c.count == 0 && c.bufPos == c.bufLen }

// cycle advances one core by one clock.
func (co *core) cycle(now int64, mem *cache.System, cfg RunConfig) {
	ctr := mem.Ctr(co.id)
	ctr.Cycles++

	co.expireMisses(now)

	committedMode, committedAny := co.commit(now, mem)
	co.issue(now, mem, ctr)
	co.frontend(now, mem, ctr)

	// Cycle classification (Figure 1). A cycle is Committing if at least
	// one instruction retired; otherwise it is Stalled and attributed to
	// the mode of the instruction blocking the head of the window (or
	// the last fetched mode when the window is empty).
	if committedAny {
		if committedMode {
			ctr.CommitCyclesOS++
		} else {
			ctr.CommitCyclesUser++
		}
	} else {
		co.stall(ctr, 1)
	}
	co.occupancy(ctr, now, 1)
}

// stall classifies k stalled cycles by the window head's mode.
func (co *core) stall(ctr *counters.Counters, k uint64) {
	mode, empty := co.headMode()
	if empty {
		ctr.FetchStallCycles += k
	}
	if mode {
		ctr.StallCyclesOS += k
	} else {
		ctr.StallCyclesUser += k
	}
}

// occupancy accounts the memory-system occupancy of k cycles from now,
// over which it must not change.
func (co *core) occupancy(ctr *counters.Counters, now int64, k uint64) {
	// Memory cycles (Section 3.1): at least one off-core data request
	// outstanding, instruction fetch stalled past the L1-I, or a TLB
	// walk in progress.
	if len(co.offcore) > 0 || co.tlbBusy > now || co.imissActive(now) {
		ctr.MemCycles += k
	}
	// Super-queue occupancy for MLP (Figure 3, right).
	if n := len(co.superQ); n > 0 {
		ctr.MLPSum += uint64(n) * k
		ctr.MLPCycles += k
	}
}

// catchUp accounts the cycles after co.last up to and including to, in
// which the core slept: nextWake guaranteed that in each of them the
// core would have committed, issued and dispatched nothing, that no
// miss would have expired, and that no TLB walk or instruction miss
// would have ended. Every per-cycle counter is then the same in each of
// those cycles, and so is everything cycle reads to derive them.
func (co *core) catchUp(to int64, mem *cache.System) {
	if to <= co.last {
		return
	}
	k := uint64(to - co.last)
	ctr := mem.Ctr(co.id)
	ctr.Cycles += k
	co.stall(ctr, k)
	co.occupancy(ctr, co.last+1, k)
	co.nextCtx += int(k) // commit advances it once per cycle
	co.last = to
}

// nextWake returns the first cycle after now in which the core, left
// untouched since stepping now, might do anything but stall: the
// earliest of
//
//   - a window head completing (commit);
//   - a ready entry's ready cycle, or a miss expiry freeing the super
//     queue for a blocked load (issue, through minReady);
//   - the front end's fetch stall or mispredict redirect ending, or now+1
//     when it can fetch or dispatch (fetchWake);
//   - a super-queue miss expiring (every off-core miss is in the super
//     queue too), a TLB walk ending or an instruction miss ending, which
//     change the memory-cycle and MLP accounting.
//
// A front end waiting on a full window, reservation stations, load or
// store queue, or an unissued mispredicted branch is woken by the commit
// or issue that frees it, so it adds no time of its own.
func (co *core) nextWake(now int64) int64 {
	t := never
	for _, ctx := range co.ctxs {
		t = min(t, ctx.minReady, co.fetchWake(ctx, now))
		if ctx.count > 0 {
			if h := &ctx.window[ctx.head]; h.status != stWaiting {
				t = min(t, h.doneAt)
			}
		}
		if ctx.imissUntil > now {
			t = min(t, ctx.imissUntil)
		}
	}
	for _, d := range co.superQ {
		t = min(t, d)
	}
	if co.tlbBusy > now {
		t = min(t, co.tlbBusy)
	}
	return max(t, now+1)
}

// fetchWake returns the first cycle after now in which ctx's front end
// may fetch or dispatch, following frontend's checks in order, or never
// when it waits on the back end or its stream has ended.
func (co *core) fetchWake(ctx *context, now int64) int64 {
	if t := max(ctx.fetchBlockedUntil, ctx.redirectUntil); t > now+1 {
		return t
	}
	if ctx.pendingBranch >= 0 || ctx.count == len(ctx.window) || co.rsUsed >= co.cfg.RS {
		return never
	}
	if ctx.bufPos == ctx.bufLen {
		if ctx.eof {
			return never
		}
		return now + 1 // the next peek pulls a batch from the generator
	}
	switch ctx.buf[ctx.bufPos].Op {
	case trace.OpLoad:
		if co.lqUsed >= co.cfg.LoadQ {
			return never
		}
	case trace.OpStore:
		if co.sqUsed >= co.cfg.StoreQ {
			return never
		}
	}
	return now + 1
}

func (co *core) imissActive(now int64) bool {
	for _, ctx := range co.ctxs {
		if ctx.imissUntil > now {
			return true
		}
	}
	return false
}

func (co *core) headMode() (kernel bool, windowEmpty bool) {
	// Prefer the oldest head across contexts for attribution.
	var found *context
	for _, ctx := range co.ctxs {
		if ctx.count == 0 {
			continue
		}
		if found == nil || ctx.baseSeq < found.baseSeq {
			found = ctx
		}
	}
	if found == nil {
		for _, ctx := range co.ctxs {
			if ctx.lastMode {
				return true, true
			}
		}
		return false, true
	}
	return found.window[found.head].inst.Kernel, false
}

func (co *core) expireMisses(now int64) {
	co.superQ = expire(co.superQ, now)
	co.offcore = expire(co.offcore, now)
}

func expire(q []int64, now int64) []int64 {
	w := 0
	for _, t := range q {
		if t > now {
			q[w] = t
			w++
		}
	}
	return q[:w]
}

// commit retires up to Width instructions across contexts, oldest head
// first, and returns the mode of the first retiree.
func (co *core) commit(now int64, mem *cache.System) (kernelMode bool, any bool) {
	budget := co.cfg.Width
	for budget > 0 {
		// Pick the context whose head is ready, preferring round-robin
		// fairness between SMT contexts.
		var pick *context
		for i := 0; i < len(co.ctxs); i++ {
			ctx := co.ctxs[(co.nextCtx+i)%len(co.ctxs)]
			if ctx.count == 0 {
				continue
			}
			if h := &ctx.window[ctx.head]; h.status == stIssued && h.doneAt <= now {
				pick = ctx
				break
			}
		}
		if pick == nil {
			break
		}
		h := &pick.window[pick.head]
		if h.inst.Op == trace.OpStore {
			// Stores update the cache at retirement (store buffer drain).
			mem.AccessData(co.id, h.inst.Addr, true, h.inst.Kernel, now)
			co.sqUsed--
		}
		if h.inst.Op == trace.OpLoad {
			co.lqUsed--
		}
		ctr := mem.Ctr(co.id)
		if h.inst.Kernel {
			ctr.CommitOS++
		} else {
			ctr.CommitUser++
			pick.committedUser++
		}
		if !any {
			any = true
			kernelMode = h.inst.Kernel
		}
		pick.committed++
		pick.head++
		if pick.head >= len(pick.window) {
			pick.head -= len(pick.window)
		}
		pick.count--
		pick.baseSeq++
		budget--
	}
	co.nextCtx++
	return kernelMode, any
}

// issue starts up to Width ready instructions, oldest first within a
// context, visiting contexts round-robin.
func (co *core) issue(now int64, mem *cache.System, ctr *counters.Counters) {
	budget := co.cfg.Width
	for i := 0; i < len(co.ctxs) && budget > 0; i++ {
		ctx := co.ctxs[(co.nextCtx+i)%len(co.ctxs)]
		if ctx.minReady <= now {
			budget = co.issueFrom(ctx, now, mem, ctr, budget)
		}
	}
}

// issueFrom walks ctx's ready set in age order — slots head..end, then
// 0..head — starting every entry whose ready cycle has come, until
// budget runs out, and returns the budget left. A load that finds the
// super queue full is passed over, and younger entries still issue.
// Each step re-reads the current bitmask word, so an entry readied by a
// producer issued earlier in the walk is seen too. A complete walk
// leaves minReady at the earliest cycle a remaining entry can issue.
func (co *core) issueFrom(ctx *context, now int64, mem *cache.System, ctr *counters.Counters, budget int) int {
	n := len(ctx.window)
	next := never
	blocked := false
	for _, r := range [2][2]int{{ctx.head, n}, {0, ctx.head}} {
		for lo, hi := r[0], r[1]; lo < hi; {
			w := lo >> 6
			end := (w + 1) << 6
			word := ctx.ready[w] &^ (1<<(lo&63) - 1)
			if hi < end {
				word &= 1<<(hi&63) - 1
			}
			if word == 0 {
				lo = end
				continue
			}
			slot := w<<6 | bits.TrailingZeros64(word)
			lo = slot + 1
			if budget == 0 {
				ctx.minReady = now + 1 // unvisited entries may be ready
				return 0
			}
			e := &ctx.window[slot]
			if e.readyAt > now {
				next = min(next, e.readyAt)
				continue
			}
			if e.inst.Op == trace.OpLoad && len(co.superQ) >= co.cfg.MSHRs {
				blocked = true // super queue full: cannot start the miss
				continue
			}
			co.start(ctx, e, slot, now, mem, ctr)
			ctx.ready[w] &^= 1 << (slot & 63)
			ctx.wakeConsumers(e)
			budget--
		}
	}
	if blocked {
		// The queue stays full until its earliest miss expires.
		for _, d := range co.superQ {
			next = min(next, d)
		}
	}
	ctx.minReady = next
	return budget
}

// start issues the ready entry e, at window slot, and fixes its
// completion cycle.
func (co *core) start(ctx *context, e *entry, slot int, now int64, mem *cache.System, ctr *counters.Counters) {
	switch e.inst.Op {
	case trace.OpLoad:
		lat, tres := co.tlbs.TranslateD(e.inst.Addr)
		if tres == tlb.Walk {
			ctr.STLBMiss++
			if end := now + int64(lat); end > co.tlbBusy {
				co.tlbBusy = end
			}
		} else if tres == tlb.HitL2 {
			ctr.DTLBMiss++
		}
		r := mem.AccessData(co.id, e.inst.Addr, false, e.inst.Kernel, now)
		e.doneAt = r.Done + int64(lat)
		if r.L1Miss {
			co.superQ = append(co.superQ, e.doneAt)
		}
		if r.OffCore {
			co.offcore = append(co.offcore, e.doneAt)
		}
	case trace.OpStore:
		// Address+data ready; completion is immediate (the write
		// happens at retirement through the store buffer).
		e.doneAt = now + 1
	case trace.OpBranch:
		e.doneAt = now + 1
		off := slot - ctx.head
		if off < 0 {
			off += len(ctx.window)
		}
		if ctx.pendingBranch == ctx.baseSeq+int64(off) {
			ctx.redirectUntil = e.doneAt + int64(co.cfg.MispredictPenalty)
			ctx.pendingBranch = -1
		}
	case trace.OpMul:
		e.doneAt = now + int64(co.cfg.MulLatency)
	case trace.OpFP:
		e.doneAt = now + int64(co.cfg.FPLatency)
	default:
		e.doneAt = now + int64(co.cfg.ALULatency)
	}
	e.status = stIssued
	co.rsUsed--
}

// frontend fetches and dispatches up to Width instructions into the
// window, honouring I-cache stalls, branch-mispredict redirects, and
// structural limits (ROB, RS, LQ/SQ).
func (co *core) frontend(now int64, mem *cache.System, ctr *counters.Counters) {
	budget := co.cfg.Width
	for i := 0; i < len(co.ctxs) && budget > 0; i++ {
		ctx := co.ctxs[(co.nextCtx+i)%len(co.ctxs)]
		for budget > 0 {
			if ctx.fetchBlockedUntil > now || ctx.redirectUntil > now || ctx.pendingBranch >= 0 {
				break
			}
			if ctx.count == len(ctx.window) || co.rsUsed >= co.cfg.RS {
				break
			}
			in, ok := ctx.peek()
			if !ok {
				break
			}
			switch in.Op {
			case trace.OpLoad:
				if co.lqUsed >= co.cfg.LoadQ {
					budget = 0
					continue
				}
			case trace.OpStore:
				if co.sqUsed >= co.cfg.StoreQ {
					budget = 0
					continue
				}
			}

			// Instruction fetch: access the I-side on line transitions.
			line := in.PC >> cache.LineShift
			if line != ctx.lastFetchLine {
				page := in.PC >> 12
				if page != ctx.lastFetchPage {
					lat, tres := co.tlbs.TranslateI(in.PC)
					if tres != tlb.HitL1 {
						ctr.ITLBMiss++
						ctx.fetchBlockedUntil = now + int64(lat)
						if end := now + int64(lat); end > co.tlbBusy {
							co.tlbBusy = end
						}
					}
					ctx.lastFetchPage = page
				}
				fr := mem.FetchInstr(co.id, in.PC, now, in.Kernel)
				ctx.lastFetchLine = line
				if fr.L1Miss {
					if fr.Done > ctx.fetchBlockedUntil {
						ctx.fetchBlockedUntil = fr.Done
					}
					if fr.Done > ctx.imissUntil {
						ctx.imissUntil = fr.Done
					}
					break
				}
				if ctx.fetchBlockedUntil > now {
					break
				}
			}

			// Dispatch into the window, onto the consumer lists of its
			// unissued producers or, if none, into the ready set.
			slot := ctx.tail
			seq := ctx.baseSeq + int64(ctx.count)
			ctx.window[slot] = entry{inst: *in, status: stWaiting}
			ctx.link(slot, 0, in.DepA, seq)
			if in.DepB != in.DepA {
				ctx.link(slot, 1, in.DepB, seq)
			}
			if ctx.window[slot].pending == 0 {
				ctx.markReady(slot)
			}
			ctx.tail++
			if ctx.tail >= len(ctx.window) {
				ctx.tail -= len(ctx.window)
			}
			ctx.count++
			co.rsUsed++
			ctx.lastMode = in.Kernel
			switch in.Op {
			case trace.OpLoad:
				co.lqUsed++
			case trace.OpStore:
				co.sqUsed++
			case trace.OpBranch:
				ctr.Branches++
				// Unconditional transfers (calls, returns, jumps) are
				// handled by the BTB/RAS and never redirect late.
				if !in.Uncond && co.bp.Predict(in.PC, in.Taken, in.Target) {
					ctr.Mispredicts++
					ctx.pendingBranch = ctx.baseSeq + int64(ctx.count) - 1
				}
			}
			ctx.advance()
			budget--
		}
	}
}
