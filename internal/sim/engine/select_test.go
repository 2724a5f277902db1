package engine

import (
	"math/rand"
	"testing"

	"cloudsuite/internal/sim/bpred"
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/tlb"
	"cloudsuite/internal/trace"
)

// These tests pin the issue stage's selection rules against a reference
// model that re-derives every cycle's decisions from the window state:
//
//   - among waiting entries whose producers have completed, the oldest
//     issue first, up to Width per core per cycle;
//   - SMT contexts are visited round-robin, starting one past the
//     context commit started from;
//   - a load that finds the super queue full is skipped, and younger
//     ready instructions still issue in its place.
//
// The core is stepped one cycle at a time through (*core).cycle, so the
// model sees every cycle, busy or idle.

// testCore builds core 0 of a one-socket machine with one context per
// generator.
func testCore(cc CoreConfig, gens ...trace.Generator) *core {
	co := &core{id: 0, cfg: cc, bp: bpred.New(bpred.DefaultConfig()), tlbs: tlb.NewHierarchy()}
	for i, g := range gens {
		co.ctxs = append(co.ctxs, &context{
			gen: g, buf: make([]trace.Inst, 4096),
			measured: true, tid: i,
			window:        make([]entry, cc.ROB/len(gens)),
			pendingBranch: -1,
		})
	}
	return co
}

// randomStream is a seeded mix of ALU, multiply, FP, load, store and
// branch instructions with random dependences. Loads touch random lines
// of a 256MB region (mostly misses); branch outcomes are random, so
// mispredict redirects gate the front end too.
func randomStream(seed int64, n int) trace.Generator {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]trace.Inst, n)
	for i := range insts {
		in := trace.Inst{PC: 0x400000 + uint64(i%256)*4}
		switch r := rng.Intn(100); {
		case r < 35:
			in.Op = trace.OpALU
		case r < 45:
			in.Op = trace.OpMul
		case r < 50:
			in.Op = trace.OpFP
		case r < 75:
			in.Op = trace.OpLoad
			in.Addr = 0x4000_0000 + uint64(rng.Int63n(256<<20/64))*64
			in.Size = 8
		case r < 85:
			in.Op = trace.OpStore
			in.Addr = 0x4000_0000 + uint64(rng.Int63n(1<<20/64))*64
			in.Size = 8
		default:
			in.Op = trace.OpBranch
			in.Taken = rng.Intn(2) == 0
			in.Target = 0x400000
		}
		if rng.Intn(3) > 0 {
			in.DepA = int32(1 + rng.Intn(24))
		}
		if rng.Intn(4) == 0 {
			in.DepB = int32(1 + rng.Intn(60))
		}
		insts[i] = in
	}
	return &trace.LoopGen{Insts: insts}
}

// selectionStats counts the situations the checked cycles exercised, so
// a test can assert its scenario actually arose.
type selectionStats struct {
	cycles       int
	contended    int // cycles with more ready entries than issue slots
	skippedLoads int // a full-super-queue load skipped while a younger entry issued
	smtBoth      int // cycles where both SMT contexts issued
}

type waitingEntry struct {
	slot  int
	ready bool
	load  bool
}

// checkSelection steps co for cycles cycles from cycle 1 and fails the
// test on the first cycle whose issued set differs from the reference
// model's.
func checkSelection(t *testing.T, co *core, mem *cache.System, cycles int) selectionStats {
	t.Helper()
	var st selectionStats
	cfg := RunConfig{Core: co.cfg}
	for now := int64(1); now <= int64(cycles); now++ {
		// Snapshot, in age order, every waiting entry and whether its
		// producers have completed by now.
		waiting := make([][]waitingEntry, len(co.ctxs))
		nReady := 0
		for ci, ctx := range co.ctxs {
			for n := 0; n < ctx.count; n++ {
				slot := (ctx.head + n) % len(ctx.window)
				e := &ctx.window[slot]
				if e.status != stWaiting {
					continue
				}
				seq := ctx.baseSeq + int64(n)
				ready := true
				for _, d := range []int32{e.inst.DepA, e.inst.DepB} {
					p := seq - int64(d)
					if d == 0 || p < ctx.baseSeq {
						continue
					}
					pe := &ctx.window[(ctx.head+int(p-ctx.baseSeq))%len(ctx.window)]
					if pe.status == stWaiting || pe.doneAt > now {
						ready = false
					}
				}
				if ready {
					nReady++
				}
				waiting[ci] = append(waiting[ci], waitingEntry{slot: slot, ready: ready, load: e.inst.Op == trace.OpLoad})
			}
		}
		sq := 0
		for _, d := range co.superQ {
			if d > now {
				sq++
			}
		}
		start := co.nextCtx + 1 // commit advances the round-robin pointer before issue

		co.cycle(now, mem, cfg)
		st.cycles++
		if nReady > co.cfg.Width {
			st.contended++
		}

		// Expiry keeps survivors in order, so everything past them was
		// appended by this cycle's missing loads, in issue order.
		appended := co.superQ[sq:]
		budget := co.cfg.Width
		issuedCtxs := 0
		for i := range co.ctxs {
			ci := (start + i) % len(co.ctxs)
			ctx := co.ctxs[ci]
			skipped := false
			issuedHere := false
			for _, w := range waiting[ci] {
				e := &ctx.window[w.slot]
				issued := e.status != stWaiting
				want := w.ready && budget > 0
				if want && w.load && sq >= co.cfg.MSHRs {
					want = false
					skipped = true
				}
				if issued != want {
					t.Fatalf("cycle %d ctx %d slot %d (op %d): issued=%v, reference model says %v (budget %d, super queue %d/%d)",
						now, ci, w.slot, e.inst.Op, issued, want, budget, sq, co.cfg.MSHRs)
				}
				if !issued {
					continue
				}
				if skipped {
					st.skippedLoads++
					skipped = false
				}
				issuedHere = true
				budget--
				if w.load && len(appended) > 0 && appended[0] == e.doneAt {
					appended = appended[1:]
					sq++
				}
			}
			if issuedHere {
				issuedCtxs++
			}
		}
		if len(appended) != 0 {
			t.Fatalf("cycle %d: %d super-queue entries not explained by issued loads", now, len(appended))
		}
		if issuedCtxs == 2 {
			st.smtBoth++
		}
	}
	return st
}

func TestIssueOldestReadyFirst(t *testing.T) {
	cc := DefaultCoreConfig()
	co := testCore(cc, randomStream(1, 5000))
	st := checkSelection(t, co, cache.NewSystem(cache.DefaultSystemConfig()), 20_000)
	if st.contended == 0 {
		t.Fatal("no cycle had more ready entries than issue slots: the age order was never tested")
	}
}

func TestIssueSkipsLoadWhenSuperQueueFull(t *testing.T) {
	cc := DefaultCoreConfig()
	cc.MSHRs = 2
	co := testCore(cc, randomStream(2, 5000))
	st := checkSelection(t, co, cache.NewSystem(cache.DefaultSystemConfig()), 20_000)
	if st.skippedLoads == 0 {
		t.Fatal("no load was skipped on a full super queue while a younger entry issued")
	}
}

func TestIssueSMTRoundRobin(t *testing.T) {
	cc := DefaultCoreConfig()
	co := testCore(cc, randomStream(3, 5000), randomStream(4, 5000))
	st := checkSelection(t, co, cache.NewSystem(cache.DefaultSystemConfig()), 20_000)
	if st.smtBoth == 0 || st.contended == 0 {
		t.Fatalf("SMT contexts never competed for issue slots (%+v)", st)
	}
}

// TestIssueNonPowerOfTwoWindows runs the scale-out core's 48-entry ROB
// (internal/core's implications machine) as one 48-entry window and as
// two 24-entry SMT windows: slot arithmetic must wrap correctly at
// sizes that are not powers of two.
func TestIssueNonPowerOfTwoWindows(t *testing.T) {
	cc := CoreConfig{
		Width: 2, ROB: 48, RS: 16, LoadQ: 24, StoreQ: 16,
		MSHRs: 10, MispredictPenalty: 10,
		ALULatency: 1, MulLatency: 3, FPLatency: 4,
	}
	for _, gens := range [][]trace.Generator{
		{randomStream(5, 3000)},
		{randomStream(6, 3000), randomStream(7, 3000)},
	} {
		co := testCore(cc, gens...)
		st := checkSelection(t, co, cache.NewSystem(cache.DefaultSystemConfig()), 15_000)
		wraps := int64(0)
		for _, ctx := range co.ctxs {
			wraps += ctx.baseSeq / int64(len(ctx.window))
		}
		if wraps < 10 || st.contended == 0 {
			t.Fatalf("%d-entry windows wrapped %d times, %d contended cycles: scenario too small",
				len(co.ctxs[0].window), wraps, st.contended)
		}
	}
}

// chaseGroups is a pointer chase over random lines of a 256MB region
// where every load feeds width+2 instructions of op: each miss leaves
// the core idle, then wakes more work than one cycle can issue.
func chaseGroups(seed int64, op trace.Op, groups int) trace.Generator {
	rng := rand.New(rand.NewSource(seed))
	const fan = 6
	var insts []trace.Inst
	for g := 0; g < groups; g++ {
		insts = append(insts, trace.Inst{
			PC: 0x400000, Op: trace.OpLoad, Size: 8, DepA: fan + 1,
			Addr: 0x4000_0000 + uint64(rng.Int63n(256<<20/64))*64,
		})
		for k := int32(1); k <= fan; k++ {
			insts = append(insts, trace.Inst{PC: 0x400000, Op: op, DepA: k})
		}
	}
	insts[0].DepA = 0
	return &trace.LoopGen{Insts: insts}
}

// TestSMTRoundRobinAfterIdleSpans pins a whole run of two SMT threads
// chasing the same pointers, so both wake on the same cycle after each
// miss with more ready work than issue slots. Which context commits and
// issues first then follows the round-robin pointer, which advances
// once per cycle, idle or not; the counts below are those of an engine
// that steps every cycle.
func TestSMTRoundRobinAfterIdleSpans(t *testing.T) {
	res := mkRun(t, []Thread{
		{Gen: chaseGroups(21, trace.OpALU, 4000), Core: 0, Measured: true},
		{Gen: chaseGroups(21, trace.OpMul, 4000), Core: 0, Measured: true},
	}, 6_000)
	c := res.Total
	got := [...]uint64{res.PerThread[0], res.PerThread[1], uint64(res.Cycles), c.StallCyclesUser, c.FetchStallCycles, c.MemCycles, c.MLPSum, c.MLPCycles}
	want := [...]uint64{10437, 6000, 339656, 331878, 0, 338165, 360820, 338165}
	if got != want {
		t.Fatalf("got [commits0 commits1 cycles stall fetchstall mem mlpsum mlpcycles] = %v, want %v", got, want)
	}
}
