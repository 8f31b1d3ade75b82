package main

import "testing"

// TestSelfTimes checks the self-time rule on a hand-built span tree: a span's
// self time is its duration minus the union of its children's intervals,
// clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a on [20,30]
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
		{ID: 6, Parent: 4, Name: "c.late", Start: 65, End: 90}, // runs past its parent
		{ID: 7, Name: "lone", Start: 200, End: 260},
	}
	want := map[int]int64{
		1: 100 - (50 - 10) - (70 - 60), // children cover [10,50] and [60,70]
		2: 20,
		3: 30 - 10,
		4: 10 - 5, // only [65,70] of the child lies inside
		5: 10,
		6: 25,
		7: 60,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
	var sum spanSummary
	for _, s := range summarize(spans) {
		if s.Name == "op" {
			sum = s
		}
	}
	if sum.Count != 1 || sum.TotalMs != 100/1e6 || sum.SelfMs != 50/1e6 {
		t.Errorf("summary of op = %+v", sum)
	}
}

// TestLaneNesting checks parent and operation assignment, and that recording
// stops cleanly when the tracer is off or absent.
func TestLaneNesting(t *testing.T) {
	tr := newTracer()
	ln := tr.lane()
	ln.begin("op.read")
	ln.begin("query")
	ln.end()
	ln.begin("rows.iterate")
	ln.end()
	ln.end()
	ln.begin("op.write")
	ln.end()
	tr.enable(false)
	ln.begin("unrecorded")
	ln.end()

	spans := tr.all()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	read, query, iter, write := spans[0], spans[1], spans[2], spans[3]
	if read.Parent != 0 || query.Parent != read.ID || iter.Parent != read.ID || write.Parent != 0 {
		t.Errorf("parents: %+v", spans)
	}
	if query.Op != read.ID || iter.Op != read.ID || write.Op != write.ID {
		t.Errorf("op ids: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	var none *tracer
	off := none.lane()
	off.begin("nothing")
	off.end()
}
