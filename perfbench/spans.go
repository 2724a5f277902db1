package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"cloudsuite/internal/core"
)

// span is one interval the benchmark recorded around a call into the
// simulator: a repetition, a pass, a store construction or a
// measurement. Parent is the enclosing span's index, -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Source string  `json:"source,omitempty"`
}

// measurePrefix starts the name of every measurement span.
const measurePrefix = "measure "

// spanLog keeps spans in memory until the benchmark writes them out.
// It is used from one goroutine: the Runner has one worker, so its
// progress callback runs on the caller's goroutine.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int // stack of unfinished spans
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() float64 { return time.Since(l.epoch).Seconds() }

func (l *spanLog) parent() int {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// begin opens a span nested in the innermost open one.
func (l *spanLog) begin(name string) int {
	l.spans = append(l.spans, span{Name: name, Parent: l.parent(), Start: l.now()})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes span id and any span opened inside it and left open.
func (l *spanLog) end(id int) {
	l.spans[id].End = l.now()
	for len(l.open) > 0 && l.open[len(l.open)-1] >= id {
		l.open = l.open[:len(l.open)-1]
	}
}

// progress records one finished Runner measurement as a span ending
// now; the Runner reports only its duration.
func (l *spanLog) progress(ev core.ProgressEvent) {
	end := l.now()
	l.spans = append(l.spans, span{
		Name: measurePrefix + ev.Bench, Parent: l.parent(),
		Start: end - ev.Duration.Seconds(), End: end, Source: ev.Source,
	})
}

// measurements returns the durations of the measurement spans nested
// directly in span id.
func (l *spanLog) measurements(id int) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Parent == id && strings.HasPrefix(s.Name, measurePrefix) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (l *spanLog) writeFile(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
