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

// checkPartition asserts that Partition on variable name's published value
// returns, for every constant, exactly the tuples a scan selects.
func checkPartition(t *testing.T, db *store.Database, name, when string, consts ...string) {
	t.Helper()
	base, ok := db.Get(name)
	if !ok {
		t.Fatalf("%s: %s missing", when, name)
	}
	for _, c := range consts {
		v := value.Str(c)
		got, served := db.Partition(base, 0, v)
		if !served {
			t.Fatalf("%s: Partition declined the published value of %s", when, name)
		}
		want := base.Select(func(tup value.Tuple) bool { return tup[0] == v })
		have := relation.New(edgeT)
		for _, tup := range got {
			have.Add(tup)
		}
		if len(got) != want.Len() || !have.Equal(want) {
			t.Errorf("%s: Partition(%s, src=%q) = %v, scan selects %s", when, name, c, got, want)
		}
	}
}

// TestPartitionFollowsPublishedValue: the access path is the published
// relation value's own index, so after every kind of publication — and after
// the paged engine evicts and re-reads the value — Partition serves what a
// scan of the new value would, fresh tuples included, and it declines bases
// that are not published.
func TestPartitionFollowsPublishedValue(t *testing.T) {
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
			checkPartition(t, db, "R", "after seeding", consts...)

			if err := db.Insert("R", edge("fresh", "i1"), edge("n7", "i2")); err != nil {
				t.Fatal(err)
			}
			checkPartition(t, db, "R", "after Insert", consts...)

			tx := db.Begin()
			if err := tx.Insert("R", edge("fresh", "t1"), edge("n0", "t2")); err != nil {
				t.Fatal(err)
			}
			overlay, _ := tx.Get("R")
			if _, served := db.Partition(overlay, 0, value.Str("fresh")); served {
				t.Error("Partition must decline a transaction overlay")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			checkPartition(t, db, "R", "after Tx.Commit", consts...)
			if _, served := db.Partition(overlay, 0, value.Str("fresh")); !served {
				t.Error("the committed overlay is the published value and must be served")
			}

			// Eviction: reading S pushes R out of the paged engine's residency,
			// so the next Get materializes a new value with no index yet.
			before, _ := db.Get("R")
			if _, ok := db.Get("S"); !ok {
				t.Fatal("S missing")
			}
			after, _ := db.Get("R")
			if name == "paged" && before == after {
				t.Fatal("the paged engine did not evict and re-read R")
			}
			if _, served := db.Partition(before, 0, value.Str("n0")); served != (before == after) {
				t.Errorf("Partition on the pre-eviction value: served=%v, still published=%v", served, before == after)
			}
			checkPartition(t, db, "R", "after eviction and re-read", consts...)

			next := relation.MustFromTuples(edgeT, edge("fresh", "a1"), edge("n7", "a2"), edge("n7", "a3"))
			if err := db.Assign("R", next); err != nil {
				t.Fatal(err)
			}
			checkPartition(t, db, "R", "after Assign", consts...)
			if got, _ := db.Get("R"); got.Len() != 3 {
				t.Fatalf("after Assign: %d tuples, want 3", got.Len())
			}
			if _, served := db.Partition(after, 0, value.Str("n0")); served {
				t.Error("Partition must decline a replaced value")
			}
		})
	}
}
