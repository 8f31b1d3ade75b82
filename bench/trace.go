package main

// In-memory span recorder for the traced pass. Spans are opened by the
// benchmark's own files around calls into the program's public functions;
// nothing inside the program is instrumented. A nil *lane records nothing,
// so the untraced pass runs the same code with tracing off.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: name, start and end in nanoseconds since the trace
// began, the span that caused it (0 for a root) and the operation it belongs
// to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer owns the spans of one traced pass. Each goroutine that issues
// operations records through its own lane, so parent tracking needs no
// locking; only id allocation is shared.
type tracer struct {
	epoch time.Time
	// on gates recording. It is flipped only between rounds, while no span is
	// open and no op goroutine runs.
	on    bool
	mu    sync.Mutex
	next  int
	lanes []*lane
}

// newTracer returns a recording tracer: set-up spans are kept.
func newTracer() *tracer { return &tracer{epoch: time.Now(), on: true} }

// enable switches recording; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

// lane is one goroutine's span stack.
type lane struct {
	t     *tracer
	id    int
	op    int
	stack []int // indices into spans of the open spans
	spans []span
}

// lane returns a new lane; a nil tracer yields a nil lane.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span under the lane's innermost open span. A span opened with
// no parent starts a new operation.
func (l *lane) begin(name string) {
	if l == nil || !l.t.on {
		return
	}
	s := span{ID: l.t.newID(), Lane: l.id, Name: name}
	if n := len(l.stack); n > 0 {
		s.Parent = l.spans[l.stack[n-1]].ID
	} else {
		l.op = s.ID
	}
	s.Op = l.op
	s.Start = int64(time.Since(l.t.epoch))
	l.stack = append(l.stack, len(l.spans))
	l.spans = append(l.spans, s)
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil || !l.t.on {
		return
	}
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.spans[i].End = int64(time.Since(l.t.epoch))
}

// all returns every recorded span, ordered by start.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its child spans (children may overlap each other; the
// covered part is the union of their intervals clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	durs := make(map[string][]float64)
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self[s.ID]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, a := range byName {
		a.P50Us = median(durs[name])
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// spanDurationsMs lists the durations of the spans of one name.
func spanDurationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	ByName   []spanSummary      `json:"by_name"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
