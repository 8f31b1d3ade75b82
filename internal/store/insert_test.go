package store_test

import (
	"io"
	"testing"

	"repro/internal/fsx"
	"repro/internal/pagestore"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

// recLogger records the batches a Database logs.
type recLogger struct{ batches [][]store.Mutation }

func (l *recLogger) Append(batch []store.Mutation, _ func(io.Writer) error) error {
	l.batches = append(l.batches, batch)
	return nil
}

func (l *recLogger) Checkpoint(func(io.Writer) error) error { return nil }

// TestInsertStoresOnlyNewTuples: tuples a variable already holds are neither
// logged nor written again — not by Insert, not by an insert-only Tx — so on
// the paged engine the heap holds exactly Len() tuples after repeated and
// overlapping inserts, the log carries exactly the tuples added, and an
// all-duplicate Insert appends no record at all.
func TestInsertStoresOnlyNewTuples(t *testing.T) {
	kvT := schema.RelationType{Name: "kv",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "k", Type: schema.IntType()},
			{Name: "v", Type: schema.StringType()},
		}}, Key: []string{"k"}}
	kv := func(k int64, v string) value.Tuple { return value.NewTuple(value.Int(k), value.Str(v)) }
	for _, name := range []string{"memory", "paged"} {
		t.Run(name, func(t *testing.T) {
			var pager *pagestore.Engine
			db := store.NewDatabase()
			if name == "paged" {
				var err error
				pager, err = pagestore.Open("db", pagestore.Config{
					FS: fsx.NewMemFS(), PageSize: 128, PoolPages: 4, ResidentBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = pager.Close() })
				db = store.NewDatabaseWith(pager)
			}
			log := &recLogger{}
			db.SetLogger(log)
			if err := db.Declare("R", kvT); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := db.Insert("R", kv(1, "a"), kv(2, "b")); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert("R", kv(1, "a")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert("R", kv(3, "c"), kv(2, "b"), kv(3, "c")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			records := len(log.batches)
			if err := db.Insert("R", kv(3, "c"), kv(1, "a")); err != nil {
				t.Fatal(err)
			}
			if len(log.batches) != records {
				t.Fatal("an all-duplicate Insert appended a log record")
			}

			rel, _ := db.Get("R")
			logged := 0
			for _, b := range log.batches {
				for _, m := range b {
					if m.Op == store.OpInsert {
						logged += len(m.Tuples)
					}
				}
			}
			if rel.Len() != 3 || logged != rel.Len() {
				t.Fatalf("R holds %d tuples, the log carries %d inserted tuples", rel.Len(), logged)
			}
			if pager != nil {
				if st := pager.Stats(); st.Tuples != rel.Len() {
					t.Fatalf("heap holds %d tuples, R %d", st.Tuples, rel.Len())
				}
			}
		})
	}
}
