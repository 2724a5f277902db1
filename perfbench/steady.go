package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs the workload n times, untraced, on seeds seed..seed+n-1,
// each in a process of its own, and prints each end-to-end metric's
// median, quartiles and spread (interquartile distance over median),
// then the tracing overhead from one traced run.
func steady(w *workload, seed int64, n, seconds int) error {
	if n < 2 {
		return errors.New("--steady needs at least 2 runs")
	}
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := child(w.name, seed+int64(i), seconds, 0)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			vals[m.name] = append(vals[m.name], res.Metrics[m.name].Value)
		}
	}
	fmt.Printf("%s: %d runs, seeds %d..%d, %ds each\n", w.name, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-16s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range endToEnd {
		q := quartiles(vals[m.name])
		fmt.Printf("%-16s %12.6g %12.6g %12.6g %8.4f %6.2f\n", m.name, q[1], q[0], q[2], (q[2]-q[0])/q[1], m.bound)
	}
	res, err := child(w.name, seed, seconds, 1)
	if err != nil {
		return err
	}
	fmt.Printf("obs.tracing_overhead_x %.4f\n", res.Metrics["obs.tracing_overhead_x"].Value)
	return nil
}

// child runs this benchmark in a process of its own and parses the
// result from its last output line.
func child(name string, seed int64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// default, exclusive method), so spreads read the same as there.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
