package store_test

import (
	"fmt"
	"testing"

	"repro/internal/fsx"
	"repro/internal/pagestore"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

var edgeT = schema.RelationType{Name: "edge",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "src", Type: schema.StringType()},
		{Name: "dst", Type: schema.StringType()},
	}}}

func edge(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

// checkIndex asserts that the hash index on attribute 0 of rel — the access
// path the evaluator probes — returns, for every constant, exactly the tuples
// a scan selects.
func checkIndex(t *testing.T, rel *relation.Relation, when string, consts ...string) {
	t.Helper()
	idx := rel.IndexOn([]int{0})
	for _, c := range consts {
		v := value.Str(c)
		got := idx.Probe(value.Tuple{v})
		want := rel.Select(func(tup value.Tuple) bool { return tup[0] == v })
		have := relation.New(edgeT)
		for _, tup := range got {
			have.Add(tup)
		}
		if len(got) != want.Len() || !have.Equal(want) {
			t.Errorf("%s: index probe src=%q = %v, scan selects %s", when, c, got, want)
		}
	}
}

// TestIndexFollowsPublishedValue: an access path is the relation value's own
// index, so on the value Get hands out after every kind of publication — and
// after the paged engine evicts and re-reads it — and on the overlay Tx.Get
// hands out mid-transaction, IndexOn serves what a scan of that value would,
// fresh tuples included; a value indexed before a write keeps answering for
// its own content.
func TestIndexFollowsPublishedValue(t *testing.T) {
	engines := map[string]func(t *testing.T) store.Engine{
		"memory": func(*testing.T) store.Engine { return store.NewMemoryEngine() },
		"paged": func(t *testing.T) store.Engine {
			// ResidentBytes 1: only the most recently touched variable stays
			// materialized, so touching S evicts R.
			e, err := pagestore.Open("db", pagestore.Config{
				FS: fsx.NewMemFS(), PageSize: 128, PoolPages: 4, ResidentBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = e.Close() })
			return e
		},
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			db := store.NewDatabaseWith(open(t))
			for _, v := range []string{"R", "S"} {
				if err := db.Declare(v, edgeT); err != nil {
					t.Fatal(err)
				}
			}
			published := func(when string) *relation.Relation {
				t.Helper()
				rel, ok := db.Get("R")
				if !ok {
					t.Fatalf("%s: R missing", when)
				}
				return rel
			}
			var seed []value.Tuple
			for i := 0; i < 200; i++ {
				seed = append(seed, edge(fmt.Sprintf("n%d", i%10), fmt.Sprintf("m%d", i)))
			}
			if err := db.Insert("R", seed...); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("S", edge("s", "t")); err != nil {
				t.Fatal(err)
			}
			consts := []string{"n0", "n7", "fresh", "ghost"}
			seeded := published("after seeding")
			checkIndex(t, seeded, "after seeding", consts...)

			if err := db.Insert("R", edge("fresh", "i1"), edge("n7", "i2")); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, published("after Insert"), "after Insert", consts...)
			checkIndex(t, seeded, "the superseded value after Insert", consts...)

			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert("R", edge("fresh", "t1"), edge("n0", "t2")); err != nil {
				t.Fatal(err)
			}
			overlay, _ := tx.Get("R")
			checkIndex(t, overlay, "transaction overlay", consts...)
			if err := tx.Insert("R", edge("fresh", "t3")); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, overlay, "transaction overlay after a second Tx.Insert", consts...)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, published("after Tx.Commit"), "after Tx.Commit", consts...)

			// Eviction: reading S pushes R out of the paged engine's residency,
			// so the next Get materializes a new value with no index yet.
			before := published("before eviction")
			if _, ok := db.Get("S"); !ok {
				t.Fatal("S missing")
			}
			after := published("after eviction")
			if name == "paged" && before == after {
				t.Fatal("the paged engine did not evict and re-read R")
			}
			checkIndex(t, after, "after eviction and re-read", consts...)

			next := relation.MustFromTuples(edgeT, edge("fresh", "a1"), edge("n7", "a2"), edge("n7", "a3"))
			if err := db.Assign("R", next); err != nil {
				t.Fatal(err)
			}
			assigned := published("after Assign")
			checkIndex(t, assigned, "after Assign", consts...)
			if assigned.Len() != 3 {
				t.Fatalf("after Assign: %d tuples, want 3", assigned.Len())
			}
			if n := db.CachedPaths(); n < 1 {
				t.Errorf("CachedPaths = %d after indexing the published value, want >= 1", n)
			}
		})
	}
}
