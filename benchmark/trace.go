package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans of
// one op share Op; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Client int    `json:"client"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing: the end-to-end runs pass nil.
type tracer struct {
	label string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(label string) *tracer { return &tracer{label: label, epoch: time.Now()} }

func (t *tracer) add(name, parent string, op, client int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Op: op, Client: client, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// median returns the median duration of the named span, 0 with none.
func (t *tracer) median(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	return medianDuration(d)
}

// writeJSONL appends the spans to path, one JSON object per line, each
// tagged with the tracer's label.
func writeJSONL(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			rec := struct {
				Run string `json:"run"`
				span
			}{t.label, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
