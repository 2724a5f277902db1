package main

import (
	"errors"
	"strings"
	"testing"

	"cloudsuite/internal/core"
)

// fakeRep builds a repetition whose passes hold the given measurements
// (window cycles only) without simulating anything.
func fakeRep(first, second []int64) rep {
	mk := func(label string, cycles []int64) pass {
		p := pass{label: label}
		for _, c := range cycles {
			p.ms = append(p.ms, &core.Measurement{WindowCycles: c, BenchName: "fake"})
		}
		return p
	}
	return rep{passes: [2]pass{mk("first", first), mk("second", second)}}
}

func TestCheckRepsWrongExpectedDigestFails(t *testing.T) {
	reps := []rep{fakeRep([]int64{1, 2}, []int64{1, 2}), fakeRep([]int64{1, 2}, []int64{1, 2})}
	good := checkReps(reps, 2, "")
	if good.failed != 0 || good.attempted != 8 || len(good.problems) != 0 {
		t.Fatalf("clean run: %+v", good)
	}
	if again := checkReps(reps, 2, good.digest); again.failed != 0 {
		t.Fatalf("the run's own digest as expected digest: %+v", again)
	}

	bad := checkReps(reps, 2, "000000000000000000000000")
	if bad.failed != 4 || bad.attempted != 8 {
		t.Fatalf("wrong expected digest: %d of %d failed, want 4 of 8 (every first pass)", bad.failed, bad.attempted)
	}
	if len(bad.problems) != 2 || !strings.Contains(bad.problems[0], "want 000000000000000000000000") {
		t.Fatalf("wrong expected digest reported as %q", bad.problems)
	}
}

func TestCheckRepsFailures(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(r *rep)
		failed int
	}{
		"second pass differs": {func(r *rep) { r.passes[1].ms[0].WindowCycles++ }, 2},
		"error":               {func(r *rep) { r.passes[0].err = errors.New("boom") }, 2},
		"claim":               {func(r *rep) { r.passes[1].claims = []core.Claim{{ID: "S4", Holds: false}} }, 2},
		"verify": {func(r *rep) {
			r.verify = func(_, _ *pass) error { return errors.New("fork pass did not fork") }
		}, 4},
	} {
		t.Run(name, func(t *testing.T) {
			reps := []rep{fakeRep([]int64{1, 2}, []int64{1, 2}), fakeRep([]int64{1, 2}, []int64{1, 2})}
			tc.mutate(&reps[1])
			c := checkReps(reps, 2, "")
			if c.failed != tc.failed || c.attempted != 8 || len(c.problems) == 0 {
				t.Fatalf("%d of %d failed (%q), want %d", c.failed, c.attempted, c.problems, tc.failed)
			}
		})
	}
	// A failed first repetition does not become the reference.
	reps := []rep{fakeRep([]int64{1, 2}, []int64{1, 2}), fakeRep([]int64{1, 2}, []int64{1, 2})}
	reps[0].passes[0].err = errors.New("boom")
	if c := checkReps(reps, 2, ""); c.failed != 2 {
		t.Fatalf("failed first repetition: %d failed (%q), want 2", c.failed, c.problems)
	}
	// A first repetition that disagrees with a later one: nondeterminism.
	reps = []rep{fakeRep([]int64{1, 2}, []int64{1, 2}), fakeRep([]int64{1, 3}, []int64{1, 3})}
	if c := checkReps(reps, 2, ""); c.failed != 2 {
		t.Fatalf("repetitions disagree: %d failed, want 2", c.failed)
	}
}
