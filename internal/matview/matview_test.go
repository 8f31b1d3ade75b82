package matview_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fixpoint"
	"repro/internal/matview"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

var (
	partT    = schema.StringType()
	infrontT = schema.NewRelationType("infrontrel", schema.NewRecordType("",
		schema.Attribute{Name: "front", Type: partT},
		schema.Attribute{Name: "back", Type: partT}))
	aheadT = schema.NewRelationType("aheadrel", schema.NewRecordType("",
		schema.Attribute{Name: "head", Type: partT},
		schema.Attribute{Name: "tail", Type: partT}))
)

const aheadSrc = `
MODULE m;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END m.`

// joinedSrc reads a second global relation Blocked alongside its base, so the
// grounded system carries a dependency.
const joinedSrc = `
MODULE m;
CONSTRUCTOR joined FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, g.back> OF EACH f IN Rel, EACH g IN Blocked: f.back = g.front
END joined;
END m.`

func pair(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

func parseConstructor(t *testing.T, src string) *ast.ConstructorDecl {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			return cd
		}
	}
	t.Fatal("no constructor")
	return nil
}

// harness wires a store, a view cache, and an engine whose environment sees
// the store's published relations.
type harness struct {
	st    *store.Database
	cache *matview.Cache
	en    *core.Engine
	env   *eval.Env
}

func newHarness(t *testing.T, capacity int, srcs ...string) *harness {
	t.Helper()
	reg := core.NewRegistry()
	for _, src := range srcs {
		d := parseConstructor(t, src)
		if _, err := reg.Register(d, aheadT, positivity.CheckConstructor(d, nil)); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	st := store.NewDatabase()
	cache := matview.New(capacity)
	cache.Attach(st)
	env := eval.NewEnv()
	en := core.NewEngine(reg, env)
	en.Mode = core.SemiNaive
	en.Views = cache
	return &harness{st: st, cache: cache, en: en, env: env}
}

// bind refreshes the engine environment's relation bindings from the store,
// as a session's per-call environment snapshot would.
func (h *harness) bind() {
	rels, err := h.st.Snapshot()
	if err != nil {
		panic(err) // memory engine: cannot fail
	}
	for name, rel := range rels {
		h.env.Rels[name] = rel
	}
}

func (h *harness) base(t *testing.T, name string) *relation.Relation {
	t.Helper()
	r, ok := h.st.Get(name)
	if !ok {
		t.Fatalf("variable %s not in store", name)
	}
	return r
}

// scratch computes the constructor from scratch on a view-less engine.
func (h *harness) scratch(t *testing.T, cons string, base *relation.Relation) *relation.Relation {
	t.Helper()
	en := core.NewEngine(h.en.Registry, h.env)
	en.Mode = core.SemiNaive
	want, err := en.ApplyContext(context.Background(), cons, base, nil)
	if err != nil {
		t.Fatalf("scratch %s: %v", cons, err)
	}
	return want
}

func chain(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = pair(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1))
	}
	return out
}

func TestMissHitMaintain(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	if err := h.st.Insert("R", chain(4)...); err != nil {
		t.Fatal(err)
	}

	// Cold: miss, compute, install.
	base := h.base(t, "R")
	got, ok, err := h.cache.Apply(ctx, h.en, "ahead", base, nil)
	if err != nil || !ok {
		t.Fatalf("cold apply: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", base); !got.Equal(want) {
		t.Fatalf("miss result wrong: %v vs %v", got, want)
	}

	// Same base pointer: hit, identical relation served.
	again, ok, err := h.cache.Apply(ctx, h.en, "ahead", base, nil)
	if err != nil || !ok {
		t.Fatalf("hit apply: ok=%v err=%v", ok, err)
	}
	if again != got {
		t.Fatal("hit should serve the cached relation pointer")
	}

	// Committed growth: the next read absorbs the delta incrementally.
	if err := h.st.Insert("R", pair("x", "n000"), pair("n005", "y")); err != nil {
		t.Fatal(err)
	}
	grown := h.base(t, "R")
	maintained, ok, err := h.cache.Apply(ctx, h.en, "ahead", grown, nil)
	if err != nil || !ok {
		t.Fatalf("maintain apply: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", grown); !maintained.Equal(want) {
		t.Fatalf("maintained result wrong: %d tuples, want %d", maintained.Len(), want.Len())
	}
	// The previously served state was not mutated by maintenance.
	if wantOld := h.scratch(t, "ahead", base); !got.Equal(wantOld) {
		t.Fatal("maintenance mutated a relation served to an earlier reader")
	}

	s := h.cache.Snapshot()
	if s.Misses != 1 || s.Hits != 1 || s.Maintained != 1 || s.Entries != 1 || s.Backlog != 0 {
		t.Fatalf("counters: %+v", s)
	}
	if vs, ok := h.en.LastView(); !ok || vs.Outcome != "maintained" || vs.Delta != 2 {
		t.Fatalf("LastView = %+v, %v", vs, ok)
	}
}

// TestAssignMaintains: an Assign of the base is queued, not invalidating; a
// burst of writes with no read in between (overwrite, growth, overwrite) is
// absorbed by one read as the signed diff against the converged base, while
// a reader of the converged snapshot keeps hitting it.
func TestAssignMaintains(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(5)...)
	old := h.base(t, "R")
	served, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil)
	if !ok || err != nil {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	before := served.Clone()

	// n001 -> n002 is re-drawn to n001 -> x, then an edge grows, then the
	// value is overwritten once more without the tail edge n004 -> n005.
	redrawn := append(chain(5)[:1:1], pair("n001", "x"), pair("n002", "n003"), pair("n003", "n004"), pair("n004", "n005"))
	if err := h.st.Assign("R", relation.MustFromTuples(infrontT, redrawn...)); err != nil {
		t.Fatal(err)
	}
	if err := h.st.Insert("R", pair("x", "n003")); err != nil {
		t.Fatal(err)
	}
	final := append(redrawn[:4:4], pair("x", "n003"))
	if err := h.st.Assign("R", relation.MustFromTuples(infrontT, final...)); err != nil {
		t.Fatal(err)
	}
	if s := h.cache.Snapshot(); s.Entries != 1 || s.Invalidations != 0 || s.Backlog != 0 {
		t.Fatalf("after the write burst: %+v", s)
	}
	if got, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil); !ok || err != nil || got != served {
		t.Fatalf("converged snapshot read: ok=%v err=%v, same relation %v", ok, err, got == served)
	}

	cur := h.base(t, "R")
	got, ok, err := h.cache.Apply(ctx, h.en, "ahead", cur, nil)
	if err != nil || !ok {
		t.Fatalf("maintain: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", cur); !got.Equal(want) {
		t.Fatalf("maintained %v, from scratch %v", got, want)
	}
	if !served.Equal(before) {
		t.Fatal("maintenance mutated a relation served to an earlier reader")
	}
	s := h.cache.Snapshot()
	if s.Misses != 1 || s.Hits != 1 || s.Maintained != 1 || s.Invalidations != 0 {
		t.Fatalf("counters: %+v", s)
	}
	// Against the converged base: +n001->x, +x->n003; -n001->n002, -n004->n005.
	if vs, ok := h.en.LastView(); !ok || vs.Outcome != "maintained" || vs.Delta != 2 || vs.Removed != 2 {
		t.Fatalf("LastView = %+v, %v", vs, ok)
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil); ok || err != nil {
		t.Fatalf("a snapshot the entry moved past must decline: ok=%v err=%v", ok, err)
	}
}

// TestOverwriteBeyondCapRecomputes: an overwrite whose diff exceeds the
// backlog cap is not maintained — the entry dies and the read recomputes.
func TestOverwriteBeyondCapRecomputes(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(3)...)
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	wide := relation.New(infrontT)
	for i := 0; i < 9000; i++ {
		wide.Add(pair(fmt.Sprintf("w%05d", i), fmt.Sprintf("v%05d", i)))
	}
	if err := h.st.Assign("R", wide); err != nil {
		t.Fatal(err)
	}
	cur := h.base(t, "R")
	got, ok, err := h.cache.Apply(ctx, h.en, "ahead", cur, nil)
	if err != nil || !ok || got.Len() != 9000 {
		t.Fatalf("recompute: ok=%v err=%v, %d tuples", ok, err, got.Len())
	}
	if s := h.cache.Snapshot(); s.Maintained != 0 || s.Invalidations != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestDependencyChangeInvalidates(t *testing.T) {
	h := newHarness(t, 4, joinedSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Declare("Blocked", infrontT)
	_ = h.st.Insert("R", pair("a", "b"))
	_ = h.st.Insert("Blocked", pair("b", "c"))
	h.bind()

	base := h.base(t, "R")
	got, ok, err := h.cache.Apply(ctx, h.en, "joined", base, nil)
	if err != nil || !ok {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	if got.Len() != 1 {
		t.Fatalf("joined = %v", got)
	}
	// Growth on a dependency is not a delta on the base: the entry dies.
	if err := h.st.Insert("Blocked", pair("b", "d")); err != nil {
		t.Fatal(err)
	}
	if s := h.cache.Snapshot(); s.Entries != 0 || s.Invalidations != 1 {
		t.Fatalf("after dep insert: %+v", s)
	}
	h.bind()
	got2, ok, err := h.cache.Apply(ctx, h.en, "joined", base, nil)
	if err != nil || !ok {
		t.Fatalf("recompute: ok=%v err=%v", ok, err)
	}
	if got2.Len() != 2 {
		t.Fatalf("recomputed joined = %v, want 2 tuples", got2)
	}
}

// TestMaintenanceErrorEvicts pins the safety property: a resume that fails
// (iteration bound, cancellation) reports the error, evicts the entry, and
// the next read recomputes from scratch — a stale converged state is never
// served past a failed maintenance.
func TestMaintenanceErrorEvicts(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(6)...)
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}

	// Appending at the tail makes the delta propagate the chain's length —
	// far past a 1-round bound.
	if err := h.st.Insert("R", pair("n006", "n007")); err != nil {
		t.Fatal(err)
	}
	bounded := core.NewEngine(h.en.Registry, h.env)
	bounded.Mode = core.SemiNaive
	bounded.MaxRounds = 1
	bounded.Views = h.cache
	grown := h.base(t, "R")
	_, _, err := h.cache.Apply(ctx, bounded, "ahead", grown, nil)
	var bex *fixpoint.BoundExceededError
	if !errors.As(err, &bex) {
		t.Fatalf("bounded maintenance: err=%v, want BoundExceededError", err)
	}
	if s := h.cache.Snapshot(); s.Entries != 0 {
		t.Fatalf("failed maintenance left a servable entry: %+v", s)
	}

	// An unbounded engine recomputes from scratch and reinstalls.
	got, ok, err := h.cache.Apply(ctx, h.en, "ahead", grown, nil)
	if err != nil || !ok {
		t.Fatalf("recompute: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", grown); !got.Equal(want) {
		t.Fatal("post-eviction recompute wrong")
	}
}

func TestCancelledMaintenanceEvicts(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(5)...)
	if _, ok, err := h.cache.Apply(context.Background(), h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	if err := h.st.Insert("R", pair("n005", "n006")); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	grown := h.base(t, "R")
	if _, _, err := h.cache.Apply(dead, h.en, "ahead", grown, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled maintenance: err=%v, want context.Canceled", err)
	}
	if s := h.cache.Snapshot(); s.Entries != 0 {
		t.Fatalf("cancelled maintenance left a servable entry: %+v", s)
	}
	got, ok, err := h.cache.Apply(context.Background(), h.en, "ahead", grown, nil)
	if err != nil || !ok {
		t.Fatalf("recompute: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", grown); !got.Equal(want) {
		t.Fatal("post-cancel recompute wrong")
	}
}

// TestHistoricalSnapshotServed: a reader holding a pre-delta base pointer
// hits the entry while its pointer is still the converged one, and after the
// entry advances past it the read recomputes correctly without disturbing
// the entry serving current readers.
func TestHistoricalSnapshotServed(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(3)...)
	old := h.base(t, "R")
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil); !ok || err != nil {
		t.Fatalf("seed: ok=%v err=%v", ok, err)
	}

	// Queued delta does not disturb a reader of the converged snapshot.
	_ = h.st.Insert("R", pair("x", "n000"))
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil); !ok || err != nil {
		t.Fatalf("pre-delta snapshot read: ok=%v err=%v", ok, err)
	}
	if s := h.cache.Snapshot(); s.Hits != 1 || s.Backlog != 1 {
		t.Fatalf("snapshot-hit counters: %+v", s)
	}

	// Maintain to current, then read the historical pointer again: the entry
	// has moved past it, so the cache declines (the engine computes inline)
	// and the entry keeps serving the current base.
	cur := h.base(t, "R")
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", cur, nil); !ok || err != nil {
		t.Fatalf("maintain: ok=%v err=%v", ok, err)
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", old, nil); ok || err != nil {
		t.Fatalf("moved-past pointer must decline: ok=%v err=%v", ok, err)
	}
	gotCur, ok, err := h.cache.Apply(ctx, h.en, "ahead", cur, nil)
	if err != nil || !ok {
		t.Fatalf("current read: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", cur); !gotCur.Equal(want) {
		t.Fatal("current entry corrupted by historical read")
	}
}

func TestLRUEviction(t *testing.T) {
	h := newHarness(t, 1, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Declare("S", infrontT)
	_ = h.st.Insert("R", pair("a", "b"))
	_ = h.st.Insert("S", pair("c", "d"))
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "S"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	s := h.cache.Snapshot()
	if s.Entries != 1 || s.Invalidations != 1 {
		t.Fatalf("capacity-1 cache: %+v", s)
	}
	// R was evicted: reading it again is a miss, not a hit.
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	if s := h.cache.Snapshot(); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("LRU counters: %+v", s)
	}
}

func TestUncacheableBypass(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", pair("a", "b"))

	// A relation that is not a published variable value bypasses the cache.
	private := relation.MustFromTuples(infrontT, pair("p", "q"))
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", private, nil); ok || err != nil {
		t.Fatalf("private base should bypass: ok=%v err=%v", ok, err)
	}
	// A relation-valued argument has no cheap identity: bypass.
	args := []eval.Resolved{{Rel: private}}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), args); ok || err != nil {
		t.Fatalf("relation arg should bypass: ok=%v err=%v", ok, err)
	}
	if s := h.cache.Snapshot(); s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("bypasses must not touch counters: %+v", s)
	}
}

func TestPeekNeverComputes(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(3)...)
	base := h.base(t, "R")
	if h.cache.Peek("ahead", base) {
		t.Fatal("cold peek must decline")
	}
	if s := h.cache.Snapshot(); s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("peek must not compute: %+v", s)
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", base, nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	before := h.cache.Snapshot()
	if !h.cache.Peek("ahead", base) {
		t.Fatal("warm peek declined")
	}
	// A queued delta is servable too: Apply maintains through it.
	_ = h.st.Insert("R", pair("x", "n000"))
	grown := h.base(t, "R")
	if !h.cache.Peek("ahead", grown) {
		t.Fatal("peek declined a base on the delta chain")
	}
	if after := h.cache.Snapshot(); after.Hits != before.Hits || after.Maintained != before.Maintained {
		t.Fatalf("peek moved a counter: %+v -> %+v", before, after)
	}
	got, ok, err := h.cache.Apply(ctx, h.en, "ahead", grown, nil)
	if err != nil || !ok {
		t.Fatalf("maintaining apply: ok=%v err=%v", ok, err)
	}
	if want := h.scratch(t, "ahead", grown); !got.Equal(want) {
		t.Fatal("maintained application wrong")
	}
	// A base the entry never saw is not servable.
	if h.cache.Peek("ahead", h.scratch(t, "ahead", grown)) {
		t.Fatal("peek accepted an unknown base")
	}
	// Behind an overwrite Apply would diff and rederive: Peek declines, and
	// the entry still maintains through it.
	if err := h.st.Assign("R", relation.MustFromTuples(infrontT, chain(2)...)); err != nil {
		t.Fatal(err)
	}
	_ = h.st.Insert("R", pair("x", "n000"))
	cur := h.base(t, "R")
	if h.cache.Peek("ahead", cur) {
		t.Fatal("peek accepted a base behind an overwrite link")
	}
	if !h.cache.Peek("ahead", grown) {
		t.Fatal("peek declined the converged base")
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", cur, nil); !ok || err != nil {
		t.Fatalf("apply behind an overwrite: ok=%v err=%v", ok, err)
	}
	if s := h.cache.Snapshot(); s.Maintained != before.Maintained+2 || s.Invalidations != 0 {
		t.Fatalf("overwrite not maintained: %+v", s)
	}
}

func TestBacklogOverflowInvalidates(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", chain(2)...)
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	// A write stream with no reads: past the pending cap the entry dies
	// rather than queueing without bound.
	for i := 0; ; i++ {
		batch := make([]value.Tuple, 512)
		for j := range batch {
			batch[j] = pair(fmt.Sprintf("l%05d-%03d", i, j), fmt.Sprintf("r%05d-%03d", i, j))
		}
		if err := h.st.Insert("R", batch...); err != nil {
			t.Fatal(err)
		}
		s := h.cache.Snapshot()
		if s.Entries == 0 {
			if s.Backlog != 0 {
				t.Fatalf("dead entry left backlog: %+v", s)
			}
			return
		}
		if i > 100 {
			t.Fatal("backlog grew past the cap without invalidating")
		}
	}
}

func TestResetDropsEverything(t *testing.T) {
	h := newHarness(t, 4, aheadSrc)
	ctx := context.Background()
	_ = h.st.Declare("R", infrontT)
	_ = h.st.Insert("R", pair("a", "b"))
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	h.cache.Reset()
	if s := h.cache.Snapshot(); s.Entries != 0 {
		t.Fatalf("reset left entries: %+v", s)
	}
	if _, ok, err := h.cache.Apply(ctx, h.en, "ahead", h.base(t, "R"), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	if s := h.cache.Snapshot(); s.Misses != 2 {
		t.Fatalf("post-reset read should miss: %+v", s)
	}
}
