package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

const ms = int64(1e6)

// A pass span with two parallel workers' cells under it: worker A runs
// [10,40) and [40,70), worker B runs [15,60); the cells overlap each other.
var parallelSpans = []Span{
	{ID: 1, Name: "sweep.pass", Start: 0, End: 100 * ms},
	{ID: 2, Parent: 1, Name: "sweep.cell", Start: 10 * ms, End: 40 * ms},
	{ID: 3, Parent: 1, Name: "sweep.cell", Start: 40 * ms, End: 70 * ms},
	{ID: 4, Parent: 1, Name: "sweep.cell", Start: 15 * ms, End: 60 * ms},
	// route inside the first cell, translate inside the third
	{ID: 5, Parent: 2, Name: "route", Start: 12 * ms, End: 30 * ms},
	{ID: 6, Parent: 4, Name: "translate", Start: 50 * ms, End: 55 * ms},
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	self := SelfTimes(parallelSpans)
	// The pass's children cover the union [10,70), so 40 ms is its own,
	// not 100 − (30+30+45) < 0.
	for id, want := range map[int64]float64{1: 0.040, 2: 0.012, 3: 0.030, 4: 0.040, 5: 0.018, 6: 0.005} {
		if !near(self[id], want) {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	busy := BusyByName(parallelSpans)
	if !near(busy["sweep.cell"], 0.082) || !near(busy["route"], 0.018) {
		t.Errorf("BusyByName = %v", busy)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "late", Start: 8 * ms, End: 14 * ms},
	}
	if got := SelfTimes(spans)[1]; !near(got, 0.008) {
		t.Errorf("self = %v, want 0.008", got)
	}
}

func TestIdleTime(t *testing.T) {
	// Two workers over 100 ms: both idle on [0,10), one idle on [10,15),
	// none on [15,60), one on [60,70), both on [70,100).
	idle := idleTime(parallelSpans[1:4], parallelSpans[0], 2)
	want := (2*10 + 5 + 10 + 2*30) / 1e3
	if !near(idle, want) {
		t.Errorf("idleTime = %v, want %v", idle, want)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	tr := NewTracer()
	pass := tr.Begin("sweep.pass", 0, 7)
	cell := tr.Begin("route", pass, 7)
	tr.End(cell)
	tr.End(pass)
	tr.Begin("never-ended", 0, 8) // open spans are not written
	want := tr.Spans()
	if len(want) != 2 {
		t.Fatalf("Spans() = %d spans, want 2", len(want))
	}
	if err := WriteSpans(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if got[1].Parent != got[0].ID || got[1].Op != 7 {
		t.Errorf("parent/op links lost: %+v", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0, 1)
	tr.End(id)
	if id != 0 {
		t.Errorf("nil tracer Begin = %d", id)
	}
}
