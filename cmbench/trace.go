package main

import (
	"sync"
	"time"

	"crowdmap/internal/obs"
)

// spanRec is one traced interval: a call into a layer, made by the
// harness. Spans nest by call order; Parent is the enclosing span's ID
// (0 at the top).
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Arg    string  `json:"arg,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A disabled tracer records nothing and costs one branch per span.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name, arg string) func() {
	if !t.on {
		return func() {}
	}
	t.mu.Lock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Arg: arg, Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[id-1].End = time.Since(t.t0).Seconds()
		if n := len(t.stack); n > 0 && t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
		}
	}
}

// addDiff accumulates last−first into acc: counters and histogram
// count/sum are summed over measured phases; gauges are not diffed.
func addDiff(acc *obs.Snapshot, first, last obs.Snapshot) {
	if acc.Counters == nil {
		acc.Counters = map[string]int64{}
		acc.Histograms = map[string]obs.HistSnapshot{}
	}
	for k, v := range last.Counters {
		acc.Counters[k] += v - first.Counters[k]
	}
	for k, h := range last.Histograms {
		a := acc.Histograms[k]
		a.Count += h.Count - first.Histograms[k].Count
		a.Sum += h.Sum - first.Histograms[k].Sum
		acc.Histograms[k] = a
	}
}
