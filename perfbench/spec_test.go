package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the tables it is generated from:
//
//	bash perfbench/run.sh --spec > BENCHMARK.json
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with --spec")
	}
}

func TestSpecLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || bytes.ContainsAny([]byte(w.why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	var setup metric
	for _, m := range endToEnd {
		use(m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		if m.name == "setup_s" {
			setup = m
		}
	}
	for _, m := range endToEnd {
		if m.bound > setup.bound {
			t.Errorf("%s bound %g exceeds setup_s's %g, which must be the largest", m.name, m.bound, setup.bound)
		}
	}
	if setup.unit != "s" || setup.better != "lower" {
		t.Errorf("setup_s must be in s, lower better: %+v", setup)
	}
	for _, m := range perLayer {
		use(m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || m.moves == "" {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("runSeconds %d out of 1..60", runSeconds)
	}
	// All runs (4 + 22 per workload), their set-up and two builds must
	// end within 3420 s; the measuring alone may take at most 80% of it.
	if total := (4 + 22*len(workloads)) * runSeconds; total > 3420*8/10 {
		t.Errorf("%d runs of %d s measure for %d s, more than 80%% of 3420 s",
			4+22*len(workloads), runSeconds, total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
