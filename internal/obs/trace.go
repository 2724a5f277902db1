package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// This file implements the structured trace emitter. Output is the
// Chrome trace_event JSON object format — {"traceEvents": [...]} with
// complete ("X") duration events and thread-name metadata ("M") — so a
// sweep's trace loads directly in chrome://tracing or Perfetto
// (ui.perfetto.dev, "Open trace file"). Spans are named by benchmark,
// configuration, and engine phase; each concurrently-executing run
// occupies one track (trace "tid"), so a parallel sweep renders as one
// lane per worker slot.
//
// Emission is not on the simulation hot path: spans are per run-phase
// (a handful per measurement), appended under a mutex. The per-batch
// trace-generation timings go to the metrics registry only — tens of
// thousands of sub-millisecond spans would bloat the trace file
// without making it more legible.

// traceEvent is one Chrome trace_event record. Timestamps and
// durations are microseconds (the format's unit) since the tracer
// epoch.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the emitted file: the object form of the trace_event
// format (extensible, unlike the bare-array form).
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// tracePID is the single "process" the simulator reports as.
const tracePID = 1

// Tracer accumulates trace events. All methods are safe for concurrent
// use; a nil Tracer no-ops.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	events []traceEvent
	free   []int // released track ids, reused smallest-first
	next   int   // smallest never-issued track id
}

func newTracer() *Tracer {
	t := &Tracer{
		epoch: time.Now(), //simlint:ok clocktaint obs is the audited wall-clock boundary; the epoch anchors trace timestamps only
	}
	t.events = append(t.events, traceEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "cloudsuite simulator"},
	})
	return t
}

// acquire reserves the smallest free track id. The first issue of an
// id also emits its thread-name metadata so the viewer labels the
// lane.
func (t *Tracer) acquire() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		// Smallest-first keeps lane assignment compact and stable.
		sort.Ints(t.free)
		id := t.free[0]
		t.free = t.free[1:]
		return id
	}
	id := t.next
	t.next++
	t.events = append(t.events, traceEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: id,
		Args: map[string]any{"name": "worker"},
	})
	return id
}

// release returns a track id to the pool.
func (t *Tracer) release(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.free = append(t.free, id)
	t.mu.Unlock()
}

// span appends one complete duration event on the given track.
// startNS/endNS are nanoseconds since the tracer epoch (the stamps the
// Observer hands out).
func (t *Tracer) span(track int, name, cat string, startNS, endNS int64, args map[string]any) {
	if t == nil {
		return
	}
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(startNS) / 1e3,
		Dur: float64(endNS-startNS) / 1e3,
		PID: tracePID, TID: track,
		Args: args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events reports the number of accumulated events (metadata included).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON writes the accumulated trace in Chrome trace_event object
// format, events sorted by timestamp (viewers do not require the
// order, but sorted files diff and inspect better).
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	if t != nil {
		t.mu.Lock()
		doc.TraceEvents = append(doc.TraceEvents, t.events...)
		t.mu.Unlock()
		sort.SliceStable(doc.TraceEvents, func(i, j int) bool {
			// Metadata first, then by start time.
			mi, mj := doc.TraceEvents[i].Ph == "M", doc.TraceEvents[j].Ph == "M"
			if mi != mj {
				return mi
			}
			return doc.TraceEvents[i].TS < doc.TraceEvents[j].TS
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
