package dbpl_test

// Benchmarks and acceptance checks for the paged storage engine, run with
// `go test -bench 'Storage'`. BenchmarkStorageScanBiggerThanPool measures
// selector scans over relations whose pages outnumber the buffer pool many
// times over, so queries fault pages in through eviction; Benchmark-
// StorageIncrementalCheckpoint measures the page-granular checkpoint after a
// small delta against the full-database flush the first checkpoint pays.
// CI runs them once as smoke steps: the scan benchmark asserts that the pool
// came under eviction pressure, the checkpoint benchmark that both byte
// counters were reported. The gating numbers come from bench/.

import (
	"fmt"
	"testing"

	dbpl "repro"
)

// whSchema declares two identically-typed stock relations so alternating
// scans overflow the materialized-relation residency budget and force real
// page traffic through the buffer pool.
const whSchema = `
MODULE whbench;
TYPE skurel = RELATION OF RECORD item, loc: STRING END;
VAR Stock: skurel;
VAR Extra: skurel;

SELECTOR at (Where: STRING) FOR Rel: skurel;
BEGIN EACH r IN Rel: r.loc = Where END at;
END whbench.
`

// openPagedBench opens a paged-engine database in dir with the given pool
// budget, fsync disabled (the benchmarks measure page traffic, not fsync).
func openPagedBench(tb testing.TB, dir string, poolPages int) *dbpl.DB {
	tb.Helper()
	return openDurable(tb, dir, dbpl.WithEngine(dbpl.EnginePaged), dbpl.WithBufferPoolPages(poolPages))
}

// fillStock inserts n warehouse tuples into rel, spread over seven locations.
func fillStock(tb testing.TB, db *dbpl.DB, rel string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		item := fmt.Sprintf("%s-item-%05d", rel, i)
		loc := fmt.Sprintf("loc-%03d", i%7)
		if err := db.Insert(rel, dbpl.NewTuple(dbpl.Str(item), dbpl.Str(loc))); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkStorageScanBiggerThanPool scans two relations, each far larger
// than both the buffer pool and the materialized-relation residency budget,
// in alternation: every iteration re-materializes its relation from heap
// pages through pool evictions.
func BenchmarkStorageScanBiggerThanPool(b *testing.B) {
	const n = 20_000
	db := openPagedBench(b, b.TempDir(), 8)
	defer db.Close()
	if _, err := db.Exec(whSchema); err != nil {
		b.Fatal(err)
	}
	fillStock(b, db, "Stock", n)
	fillStock(b, db, "Extra", n)
	queries := []string{`Stock[at("loc-003")]`, `Extra[at("loc-003")]`}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := db.Query(queries[i%2])
		if err != nil {
			b.Fatal(err)
		}
		rows = rel.Len()
	}
	b.StopTimer()
	if want := n / 7; rows != want {
		b.Fatalf("selector scan produced %d rows, want %d", rows, want)
	}
	st := db.Health().Storage
	if st.HeapSlots <= int64(st.PoolPages) {
		b.Fatalf("workload fits the pool (%d heap slots, %d pool pages): not measuring eviction", st.HeapSlots, st.PoolPages)
	}
	if st.Evictions == 0 {
		b.Fatal("no evictions: the pool never came under pressure")
	}
}

// BenchmarkStorageIncrementalCheckpoint measures the page-granular
// checkpoint: after one full checkpoint of the bulk-loaded database, each
// iteration commits a five-tuple delta and checkpoints again, flushing only
// the dirty tail pages plus the page manifest — not the whole database.
func BenchmarkStorageIncrementalCheckpoint(b *testing.B) {
	const n = 5_000
	db := openPagedBench(b, b.TempDir(), 64)
	defer db.Close()
	if _, err := db.Exec(whSchema); err != nil {
		b.Fatal(err)
	}
	fillStock(b, db, "Stock", n)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	fullBytes := db.Health().Storage.LastCheckpointBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 5; j++ {
			tup := dbpl.NewTuple(dbpl.Str(fmt.Sprintf("delta-%06d-%d", i, j)), dbpl.Str("loc-delta"))
			if err := db.Insert("Stock", tup); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	deltaBytes := db.Health().Storage.LastCheckpointBytes
	if deltaBytes == 0 || fullBytes == 0 {
		b.Fatalf("checkpoint byte counters missing (full %d, delta %d)", fullBytes, deltaBytes)
	}
}

// TestStorageIncrementalCheckpointSmallDelta pins the acceptance ratio: on a
// bulk-loaded database, an incremental checkpoint after a five-tuple delta
// writes at least 10x fewer bytes than a full snapshot of the same data (as
// the memory engine would serialize on every checkpoint).
func TestStorageIncrementalCheckpointSmallDelta(t *testing.T) {
	const n = 5_000
	db := openPagedBench(t, t.TempDir(), 64)
	defer db.Close()
	if _, err := db.Exec(whSchema); err != nil {
		t.Fatal(err)
	}
	fillStock(t, db, "Stock", n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		tup := dbpl.NewTuple(dbpl.Str(fmt.Sprintf("delta-%d", j)), dbpl.Str("loc-delta"))
		if err := db.Insert("Stock", tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	delta := db.Health().Storage.LastCheckpointBytes

	// The full-snapshot baseline: the same data on the memory engine, whose
	// checkpoint serializes the entire database every time.
	mem := openDurable(t, t.TempDir())
	defer mem.Close()
	if _, err := mem.Exec(whSchema); err != nil {
		t.Fatal(err)
	}
	fillStock(t, mem, "Stock", n)
	full := uint64(len(saveState(t, mem)))

	if delta == 0 {
		t.Fatal("incremental checkpoint reported zero bytes")
	}
	if full < 10*delta {
		t.Fatalf("incremental checkpoint wrote %d bytes; full snapshot is %d — less than the required 10x saving", delta, full)
	}
	t.Logf("incremental checkpoint: %d bytes vs %d-byte full snapshot (%.0fx)", delta, full, float64(full)/float64(delta))
}
