package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval: a call from the benchmark into a layer's
// public function. Op groups the spans of one operation (a sweep pass, a
// noisy cell, a service request); Parent is the enclosing span (0 = root).
// Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced run: Begin returns 0 and End does nothing, so instrumented code
// needs no branches.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts a tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span named name under parent within operation op and
// returns its id.
func (t *Tracer) Begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// addSpan records an already finished interval, for boundaries the
// benchmark observes through callbacks rather than around a call.
func (t *Tracer) addSpan(name string, parent, op int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes maps each span id to its self time in seconds: the span's
// duration minus the union of its children's intervals, clipped to the
// span. Children may overlap one another (parallel sweep workers under one
// pass span); the union counts covered time once.
func SelfTimes(spans []Span) map[int64]float64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		covered := unionWithin(kids[s.ID], s.Start, s.End)
		out[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// BusyByName sums self time per span name.
func BusyByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// WriteSpans writes spans as a JSON document to path.
func WriteSpans(path string, spans []Span) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	return nil
}

// ReadSpans reads a span file written by WriteSpans.
func ReadSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse span file %s: %w", path, err)
	}
	return doc.Spans, nil
}
