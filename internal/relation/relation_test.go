package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/value"
)

var binT = schema.RelationType{
	Name: "bin",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "a", Type: schema.StringType()},
		{Name: "b", Type: schema.StringType()},
	}},
}

var keyedT = schema.RelationType{
	Name: "keyed",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "id", Type: schema.IntType()},
		{Name: "val", Type: schema.StringType()},
	}},
	Key: []string{"id"},
}

func pair(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

func TestInsertContainsDelete(t *testing.T) {
	r := New(binT)
	if err := r.Insert(pair("x", "y")); err != nil {
		t.Fatal(err)
	}
	if !r.Contains(pair("x", "y")) || r.Len() != 1 {
		t.Error("insert/contains failed")
	}
	// Duplicate insert is a no-op.
	if err := r.Insert(pair("x", "y")); err != nil || r.Len() != 1 {
		t.Error("duplicate insert must be a no-op")
	}
	if !r.Delete(pair("x", "y")) || r.Len() != 0 {
		t.Error("delete failed")
	}
	if r.Delete(pair("x", "y")) {
		t.Error("deleting an absent tuple must report false")
	}
}

func TestKeyConflict(t *testing.T) {
	r := New(keyedT)
	if err := r.Insert(value.NewTuple(value.Int(1), value.Str("a"))); err != nil {
		t.Fatal(err)
	}
	err := r.Insert(value.NewTuple(value.Int(1), value.Str("b")))
	var kc *KeyConflictError
	if err == nil {
		t.Fatal("expected key conflict")
	}
	var ok bool
	kc, ok = err.(*KeyConflictError)
	if !ok {
		t.Fatalf("expected *KeyConflictError, got %T", err)
	}
	if kc.Relation != "keyed" {
		t.Errorf("conflict names relation %q", kc.Relation)
	}
	// Same key, same tuple: accepted.
	if err := r.Insert(value.NewTuple(value.Int(1), value.Str("a"))); err != nil {
		t.Errorf("re-inserting identical tuple: %v", err)
	}
}

func TestKeyedContainsIsExact(t *testing.T) {
	r := New(keyedT)
	_ = r.Insert(value.NewTuple(value.Int(1), value.Str("a")))
	if r.Contains(value.NewTuple(value.Int(1), value.Str("b"))) {
		t.Error("Contains must compare whole tuples, not just keys")
	}
	got, ok := r.LookupKey(value.NewTuple(value.Int(1)))
	if !ok || got[1] != value.Str("a") {
		t.Error("LookupKey failed")
	}
}

func TestDomainViolation(t *testing.T) {
	sub := schema.RelationType{
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "n", Type: schema.RangeType("small", 1, 10)},
		}},
	}
	r := New(sub)
	if err := r.Insert(value.NewTuple(value.Int(11))); err == nil {
		t.Error("out-of-range value must be rejected")
	}
	if err := r.Insert(value.NewTuple(value.Int(10))); err != nil {
		t.Errorf("in-range value rejected: %v", err)
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	r := MustFromTuples(binT, pair("b", "x"), pair("a", "y"), pair("a", "x"))
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			t.Fatalf("Tuples not sorted: %v", ts)
		}
	}
	if r.String() != `{<"a", "x">, <"a", "y">, <"b", "x">}` {
		t.Errorf("String: %s", r.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := MustFromTuples(binT, pair("a", "b"))
	c := r.Clone()
	c.Add(pair("c", "d"))
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("clone must be independent")
	}
}

// randomRel builds a relation from a random subset of a small universe so
// that set identities get non-trivial overlaps.
func randomRel(r *rand.Rand) *Relation {
	names := []string{"a", "b", "c"}
	out := New(binT)
	for _, x := range names {
		for _, y := range names {
			if r.Intn(2) == 0 {
				out.Add(pair(x, y))
			}
		}
	}
	return out
}

type relTriple struct{ A, B, C *Relation }

// Generate implements quick.Generator.
func (relTriple) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(relTriple{A: randomRel(r), B: randomRel(r), C: randomRel(r)})
}

// Property: the set laws of Difference, UnionInto and Equal hold.
func TestSetAlgebraProperties(t *testing.T) {
	union := func(x, y *Relation) *Relation {
		out := x.Clone()
		out.UnionInto(y)
		return out
	}
	f := func(tr relTriple) bool {
		a, b, c := tr.A, tr.B, tr.C
		// Union commutes and associates.
		if !union(a, b).Equal(union(b, a)) || !union(union(a, b), c).Equal(union(a, union(b, c))) {
			return false
		}
		// UnionInto reports exactly the tuples of B that A lacks.
		if a.Clone().UnionInto(b) != b.Difference(a).Len() {
			return false
		}
		// A \ B is disjoint from B, A \ (A \ B) = A∩B lies in B, and the two
		// union back to A.
		diff := a.Difference(b)
		meet := a.Difference(diff)
		if diff.Difference(b).Len() != diff.Len() || meet.Difference(b).Len() != 0 || !union(diff, meet).Equal(a) {
			return false
		}
		// |A∪B| = |A| + |B| - |A∩B|.
		return union(a, b).Len() == a.Len()+b.Len()-meet.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Equal is an equivalence consistent with mutual containment.
func TestEqualProperty(t *testing.T) {
	f := func(tr relTriple) bool {
		a, b := tr.A, tr.B
		eq := a.Equal(b)
		bothWays := a.Difference(b).Len() == 0 && b.Difference(a).Len() == 0
		return eq == bothWays
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEqualSeesUnderLayers: two clones with equal lengths and the same newest
// chunk are equal only if their shared sealed chunks are.
func TestEqualSeesUnderLayers(t *testing.T) {
	layered := func(prefix string) *Relation {
		r := New(binT)
		for i := 0; i < 2000; i++ {
			r.Add(pair(fmt.Sprintf("%s%04d", prefix, i), "x"))
		}
		c := r.Clone()
		c.Add(pair("same", "tuple"))
		if len(c.chunks) < 2 {
			t.Fatal("clone shares no chunk")
		}
		return c
	}
	a, b := layered("a"), layered("b")
	if a.Equal(b) || b.Equal(a) {
		t.Error("clones with disjoint shared chunks compare equal")
	}
	if a2 := layered("a"); !a.Equal(a2) {
		t.Error("clones with equal contents compare unequal")
	}
}

func TestUnionIntoReportsGrowth(t *testing.T) {
	a := MustFromTuples(binT, pair("a", "b"), pair("c", "d"))
	b := MustFromTuples(binT, pair("c", "d"), pair("e", "f"))
	grew := a.UnionInto(b)
	if grew != 1 || a.Len() != 3 {
		t.Errorf("UnionInto: grew=%d len=%d", grew, a.Len())
	}
}

func TestSelect(t *testing.T) {
	r := MustFromTuples(binT, pair("a", "b"), pair("a", "c"), pair("b", "c"))
	sel := r.Select(func(t value.Tuple) bool { return t[0] == value.Str("a") })
	if sel.Len() != 2 {
		t.Errorf("Select: %d", sel.Len())
	}
}

func TestIndexProbe(t *testing.T) {
	r := MustFromTuples(binT, pair("a", "b"), pair("a", "c"), pair("b", "c"))
	idx := BuildIndex(r, []int{0})
	if got := len(idx.Probe(value.NewTuple(value.Str("a")))); got != 2 {
		t.Errorf("Probe(a): %d", got)
	}
	if got := len(idx.Probe(value.NewTuple(value.Str("z")))); got != 0 {
		t.Errorf("Probe(z): %d", got)
	}
	if idx.Len() != 2 {
		t.Errorf("distinct keys: %d", idx.Len())
	}
}

func TestEachEarlyStop(t *testing.T) {
	r := MustFromTuples(binT, pair("a", "b"), pair("c", "d"), pair("e", "f"))
	n := 0
	r.Each(func(value.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Each early stop: visited %d", n)
	}
}

func TestSliceUnordered(t *testing.T) {
	r := MustFromTuples(binT, pair("a", "b"), pair("c", "d"), pair("e", "f"))
	s := r.Slice()
	if len(s) != 3 {
		t.Fatalf("Slice len: %d", len(s))
	}
	for _, tup := range s {
		if !r.Contains(tup) {
			t.Errorf("Slice returned foreign tuple %s", tup)
		}
	}
}

func TestInsertKeyed(t *testing.T) {
	r := New(binT)
	kd := r.KeyedOf(pair("a", "b"))
	if kd.K != pair("a", "b").Key() {
		t.Fatalf("KeyedOf whole-key relation: %+v", kd)
	}
	if err := r.InsertKeyed(kd); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertKeyed(kd); err != nil { // duplicate is a no-op
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Contains(pair("a", "b")) {
		t.Fatalf("after InsertKeyed: len=%d", r.Len())
	}

	k := New(keyedT)
	row := func(id int64, v string) value.Tuple { return value.NewTuple(value.Int(id), value.Str(v)) }
	kd1 := k.KeyedOf(row(1, "x"))
	if kd1.K != value.NewTuple(value.Int(1)).Key() {
		t.Fatalf("KeyedOf proper-subset key must encode the key attributes: %+v", kd1)
	}
	if err := k.InsertKeyed(kd1); err != nil {
		t.Fatal(err)
	}
	if err := k.InsertKeyed(k.KeyedOf(row(1, "y"))); err == nil {
		t.Fatal("key conflict not reported through InsertKeyed")
	}
	// Membership of a partial-key relation is the key lookup plus a whole-tuple
	// comparison.
	if !k.Contains(row(1, "x")) || k.Contains(row(1, "y")) || k.Contains(row(2, "x")) {
		t.Fatal("partial-key Contains is not exact")
	}
	if !k.ContainsKeyed(kd1) || k.ContainsKeyed(k.KeyedOf(row(1, "y"))) {
		t.Fatal("partial-key ContainsKeyed is not exact")
	}
}

// bigRel builds a relation large enough that Clone shares its chunks.
func bigRel(t *testing.T, n int) *Relation {
	t.Helper()
	r := New(binT)
	for i := 0; i < n; i++ {
		if err := r.Insert(pair(fmt.Sprintf("s%06d", i), fmt.Sprintf("d%06d", i%97))); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestLayeredCloneValueSemantics(t *testing.T) {
	r := bigRel(t, 3000)
	snapshot := r.Tuples()
	c := r.Clone()
	if !c.Equal(r) {
		t.Fatal("clone differs from source")
	}
	// Mutating the clone must not reach the source...
	c.Add(pair("new", "edge"))
	if r.Contains(pair("new", "edge")) || r.Len() != 3000 || c.Len() != 3001 {
		t.Fatalf("clone mutation leaked into source: r=%d c=%d", r.Len(), c.Len())
	}
	// ...and mutating the source must not reach the clone, even though the
	// two share the source's chunk.
	if err := r.Insert(pair("src", "only")); err != nil {
		t.Fatal(err)
	}
	if c.Contains(pair("src", "only")) {
		t.Fatal("source mutation leaked into clone")
	}
	if got := r.Tuples(); len(got) != len(snapshot)+1 {
		t.Fatalf("source len after insert: %d", len(got))
	}
	// Chained clones: each generation sees exactly its own additions.
	g2 := c.Clone()
	g2.Add(pair("gen", "2"))
	g3 := g2.Clone()
	g3.Add(pair("gen", "3"))
	if c.Len() != 3001 || g2.Len() != 3002 || g3.Len() != 3003 {
		t.Fatalf("chained clone lens: %d %d %d", c.Len(), g2.Len(), g3.Len())
	}
	if g2.Contains(pair("gen", "3")) || !g3.Contains(pair("gen", "2")) {
		t.Fatal("chained clone containment broken")
	}
	// Delete against a tuple held in a sealed chunk flattens and works.
	if !g3.Delete(snapshot[0]) || g3.Contains(snapshot[0]) || g3.Len() != 3002 {
		t.Fatal("delete through a sealed chunk failed")
	}
	if !c.Contains(snapshot[0]) || !g2.Contains(snapshot[0]) {
		t.Fatal("delete in one generation leaked into another")
	}
}

// TestLayeredCloneFlattensDeepChains: a chain of clones, each indexed, stays
// within maxDepth+1 chunks, and every flatten keeps the index covering the
// content, so no generation rebuilds it.
func TestLayeredCloneFlattensDeepChains(t *testing.T) {
	r := bigRel(t, 2000)
	base := r.IndexOn([]int{1})
	for i := 0; i < 3*maxDepth; i++ {
		r = r.Clone()
		r.Add(pair(fmt.Sprintf("g%04d", i), "x"))
		if len(r.chunks) > maxDepth+1 {
			t.Fatalf("generation %d: %d chunks exceed the cap", i, len(r.chunks))
		}
		if idx := r.IndexOn([]int{1}); idx.base != base {
			t.Fatalf("generation %d: index rebuilt instead of extended", i)
		}
	}
	if r.Len() != 2000+3*maxDepth {
		t.Fatalf("len after chained clones: %d", r.Len())
	}
	// A relation written in place after each Clone of it or IndexOn over it —
	// a fixpoint accumulator — flattens on its write path instead.
	for _, indexed := range []bool{false, true} {
		acc := bigRel(t, 2000)
		base := acc.IndexOn([]int{1})
		for i := 0; i < 3*maxDepth; i++ {
			if !indexed {
				acc.Clone()
			} else if idx := acc.IndexOn([]int{1}); fullOf(idx) != base {
				t.Fatalf("accumulator round %d: index rebuilt instead of extended", i)
			}
			acc.Add(pair(fmt.Sprintf("acc%04d", i), "x"))
			if len(acc.chunks) > maxDepth+1 {
				t.Fatalf("accumulator round %d: %d chunks exceed the cap", i, len(acc.chunks))
			}
		}
		if acc.Len() != 2000+3*maxDepth {
			t.Fatalf("accumulator len: %d", acc.Len())
		}
	}
}

func TestIndexOnOverlayAfterClone(t *testing.T) {
	r := bigRel(t, 3000)
	base := r.IndexOn([]int{1})
	c := r.Clone()
	c.Add(pair("extra1", "d000001"))
	c.Add(pair("extra2", "dZZZZZZ"))
	idx := c.IndexOn([]int{1})
	if idx.base == nil {
		t.Fatal("clone's index did not extend the carried base")
	}
	if idx.base != base {
		t.Fatal("overlay does not reference the source's memoized index")
	}
	// The overlay must see both the carried bucket and the new tuples.
	key := value.NewTuple(value.Str("d000001"))
	want := len(base.Probe(key)) + 1
	if got := len(idx.Probe(key)); got != want {
		t.Fatalf("overlay probe: got %d want %d", got, want)
	}
	if got := len(idx.Probe(value.NewTuple(value.Str("dZZZZZZ")))); got != 1 {
		t.Fatalf("overlay-only bucket: %d", got)
	}
	// Flattened second generation: the grandchild's overlay still resolves to
	// the one frozen full index, not a chain.
	g2 := c.Clone()
	g2.Add(pair("extra3", "d000001"))
	idx2 := g2.IndexOn([]int{1})
	if idx2.base != base {
		t.Fatal("second-generation overlay did not flatten onto the full base")
	}
	if got := len(idx2.Probe(key)); got != want+1 {
		t.Fatalf("second-generation probe: got %d want %d", got, want+1)
	}
	// Every bucket agrees with a from-scratch build.
	fresh := BuildIndex(g2, []int{1})
	g2.Each(func(tup value.Tuple) bool {
		k := tup.Project([]int{1})
		if len(fresh.Probe(k)) != len(idx2.Probe(k)) {
			t.Fatalf("bucket %s: fresh=%d overlay=%d", k, len(fresh.Probe(k)), len(idx2.Probe(k)))
		}
		return true
	})
}

// TestHasIndexOn: a relation carries an index on positions exactly when
// IndexOn would serve it without a build — one covering its content, or one
// an earlier chunk carries whose extension stays within IndexOn's limit.
func TestHasIndexOn(t *testing.T) {
	r := bigRel(t, 3000)
	if r.HasIndexOn([]int{0}) {
		t.Fatal("fresh relation carries an index")
	}
	base := r.IndexOn([]int{0})
	if !r.HasIndexOn([]int{0}) || r.HasIndexOn([]int{1}) || r.HasIndexOn([]int{0, 1}) {
		t.Fatal("memo not reported on exactly its positions")
	}
	c := r.Clone()
	c.Add(pair("extra", "x"))
	if !c.HasIndexOn([]int{0}) {
		t.Fatal("clone does not carry the source's index")
	}
	// A write opens a chunk after the indexed one: the index still covers
	// the prefix, and IndexOn extends it.
	if r.Add(pair("more", "x")); !r.HasIndexOn([]int{0}) || r.IndexOn([]int{0}).base != base {
		t.Fatal("a write dropped the relation's own index")
	}
	if idx := c.IndexOn([]int{0}); idx.base != base {
		t.Fatal("carried index was rebuilt instead of extended")
	}
	// Past IndexOn's overlay limit (a quarter of the relation) the carried
	// index would be rebuilt, so it is not carried.
	g := c.Clone()
	for i := 0; g.HasIndexOn([]int{0}); i++ {
		if i > g.Len()/4+1 {
			t.Fatalf("overlay of %d tuples still carried", i)
		}
		g.Add(pair(fmt.Sprintf("grow%05d", i), "x"))
	}
	carrier, tail := g.chunks[len(g.chunks)-2], g.chunks[len(g.chunks)-1]
	if n := overlaySize(carrier.idx["0,"]) + len(tail.rows); n <= g.Len()/4 {
		t.Fatalf("index dropped with an overlay of %d tuples of %d", n, g.Len())
	}
	if idx := g.IndexOn([]int{0}); idx.base != nil || idx == base {
		t.Fatal("an index past the overlay limit was extended, not rebuilt")
	}
}

func TestIndexOnInvalidatedByDelete(t *testing.T) {
	r := bigRel(t, 3000)
	r.IndexOn([]int{0})
	c := r.Clone()
	victim := r.Tuples()[0]
	if !c.Delete(victim) {
		t.Fatal("delete failed")
	}
	idx := c.IndexOn([]int{0})
	if got := len(idx.Probe(victim.Project([]int{0}))); got != 0 {
		t.Fatalf("index after delete still serves the victim: %d", got)
	}
}

func TestInsertAllIsAllOrNothing(t *testing.T) {
	kv := func(id int64, v string) value.Tuple { return value.NewTuple(value.Int(id), value.Str(v)) }
	// A clone sharing an indexed chunk, with a chunk of its own: the shape of
	// a transaction overlay on its second Insert call.
	base := New(keyedT)
	for i := int64(0); i < 2000; i++ {
		if err := base.Insert(kv(i, "base")); err != nil {
			t.Fatal(err)
		}
	}
	base.IndexOn([]int{1})
	r := base.Clone()
	if _, err := r.InsertAll(kv(5000, "own")); err != nil {
		t.Fatal(err)
	}
	want := r.Clone()

	// New tuple, a duplicate of an own tuple, a duplicate of a base tuple, a
	// second new tuple, then a key conflict with the first new one.
	added, err := r.InsertAll(kv(6000, "new"), kv(5000, "own"), kv(7, "base"), kv(6001, "new"), kv(6000, "clash"))
	if _, ok := err.(*KeyConflictError); !ok || added != nil {
		t.Fatalf("InsertAll over a conflicting batch: %v, want *KeyConflictError", err)
	}
	if !r.Equal(want) || r.Len() != 2001 {
		t.Fatalf("failed InsertAll changed the relation: %d tuples, want %d", r.Len(), want.Len())
	}
	if got := r.IndexOn([]int{1}).Probe(value.NewTuple(value.Str("new"))); len(got) != 0 {
		t.Fatalf("index over the restored relation still finds %d undone tuples", len(got))
	}
	// The same batch without the conflict goes in whole; what it reports
	// added is the batch minus the tuples already present or repeated.
	added, err = r.InsertAll(kv(6000, "new"), kv(5000, "own"), kv(7, "base"), kv(6001, "new"), kv(6000, "new"))
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || !added[0].Equal(kv(6000, "new")) || !added[1].Equal(kv(6001, "new")) {
		t.Fatalf("InsertAll reported %v added, want the two new tuples", added)
	}
	if r.Len() != 2003 || len(r.IndexOn([]int{1}).Probe(value.NewTuple(value.Str("new")))) != 2 {
		t.Fatalf("InsertAll of a valid batch left %d tuples", r.Len())
	}
}
