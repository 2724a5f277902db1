package core

import "testing"

// TestSteppedSkippedLedger runs the five configurations of the
// simulator benchmark's engine-bound workload (Table-1 machine, 4 cores,
// 50k warm-up, 100k-instruction windows) and checks the engine's cycle
// ledger: every window cycle is either stepped or skipped, and mcf,
// whose cores sit idle on memory most of the time, skips most of them.
func TestSteppedSkippedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("five 4-core measurements")
	}
	o := DefaultOptions()
	o.Seed = 1
	o.WarmupInsts, o.MeasureInsts = 50_000, 100_000
	smt := o
	smt.SMT = true
	for _, c := range []struct {
		bench string
		o     Options
	}{
		{"Web Search", o}, {"Web Search", smt}, {"Media Streaming", o}, {"TPC-C", o}, {"SPECint (mcf)", o},
	} {
		b, ok := FindBench(c.bench)
		if !ok {
			t.Fatalf("bench %q not registered", c.bench)
		}
		_, res, err := measure(b.New(), c.o)
		if err != nil {
			t.Fatal(err)
		}
		if res.SteppedCycles+res.SkippedCycles != res.Cycles || res.SteppedCycles <= 0 {
			t.Errorf("%s (SMT %v): %d stepped + %d skipped != %d cycles", c.bench, c.o.SMT, res.SteppedCycles, res.SkippedCycles, res.Cycles)
		}
		t.Logf("%s (SMT %v): skipped %d of %d cycles (%.0f%%)", c.bench, c.o.SMT, res.SkippedCycles, res.Cycles, 100*float64(res.SkippedCycles)/float64(res.Cycles))
		if c.bench == "SPECint (mcf)" && 2*res.SkippedCycles < res.Cycles {
			t.Errorf("mcf skipped %d of %d cycles, want at least half", res.SkippedCycles, res.Cycles)
		}
	}
}
