package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cloudsuite/internal/core"
)

// check is the correctness verdict over every repetition of a run.
type check struct {
	attempted, failed int
	digest            string
	problems          []string
}

// checkReps checks every pass of every repetition. Each pass counts
// size measurements; all of them fail when the pass errored or
// panicked, a claim does not hold, its digest differs from the
// reference (want for the first pass when set, the first repetition's
// first pass otherwise, and the same repetition's first pass for the
// second), or the job's own check rejects it.
func checkReps(reps []rep, size int, want string) check {
	var c check
	for i, r := range reps {
		var bad [2]bool
		var ds [2]string
		for k := range r.passes {
			p := &r.passes[k]
			c.attempted += size
			fault := func(format string, args ...any) {
				bad[k] = true
				c.problems = append(c.problems, fmt.Sprintf("rep %d %s: ", i, p.label)+fmt.Sprintf(format, args...))
			}
			if p.err != nil {
				fault("%v", p.err)
				continue
			}
			for _, cl := range p.claims {
				if !cl.Holds {
					fault("claim %s does not hold: %s", cl.ID, cl.Detail)
				}
			}
			d, err := digest(p)
			if err != nil {
				fault("digest: %v", err)
				continue
			}
			ds[k] = d
		}
		if !bad[0] {
			if c.digest == "" {
				c.digest = ds[0]
			}
			ref := c.digest
			if want != "" {
				ref = want
			}
			if ds[0] != ref {
				bad[0] = true
				c.problems = append(c.problems, fmt.Sprintf("rep %d %s: digest %s, want %s", i, r.passes[0].label, ds[0], ref))
			}
		}
		if !bad[1] && !bad[0] && ds[1] != ds[0] {
			bad[1] = true
			c.problems = append(c.problems, fmt.Sprintf("rep %d: %s digest %s differs from %s digest %s",
				i, r.passes[1].label, ds[1], r.passes[0].label, ds[0]))
		}
		if !bad[0] && !bad[1] && r.verify != nil {
			if err := r.verify(&r.passes[0], &r.passes[1]); err != nil {
				bad[0], bad[1] = true, true
				c.problems = append(c.problems, fmt.Sprintf("rep %d: %v", i, err))
			}
		}
		for k := range bad {
			if bad[k] {
				c.failed += size
			}
		}
	}
	return c
}

// digest hashes a pass's outputs: every measurement's counters, window
// cycles and per-interval samples, plus the claim list.
func digest(p *pass) (string, error) {
	b, err := json.Marshal(struct {
		Measurements []*core.Measurement
		Claims       []core.Claim
	}{p.ms, p.claims})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}
