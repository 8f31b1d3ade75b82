package dbpl

// Durable-storage coverage at the session layer: the same workload on the
// default resident page engine and on a bounded buffer pool, recovery cycles
// on databases larger than the pool, refusal of a directory whose snapshot
// is a Save image, degraded-mode Checkpoint fast-fail, and -race streaming
// reads under eviction pressure.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fsx"
	"repro/internal/relation"
	"repro/internal/store"
)

const storageSchema = `
MODULE wh;
TYPE sku      = STRING;
TYPE stockrel = RELATION OF RECORD item, loc: sku END;
TYPE linkrel  = RELATION OF RECORD a, b: sku END;
VAR Stock: stockrel;
VAR Links: linkrel;

SELECTOR at (Where: sku) FOR Rel: stockrel;
BEGIN EACH r IN Rel: r.loc = Where END at;

CONSTRUCTOR reach FOR Rel: linkrel (): linkrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.a, b.b> OF EACH f IN Rel, EACH b IN Rel{reach}: f.b = b.a
END reach;
END wh.
`

// storageEngines enumerates the two configurations of a durable database:
// the default, with unbounded residency, and a deliberately tiny pool that
// ordinary test workloads exceed.
var storageEngines = []struct {
	name string
	opts []Option
}{
	{"resident", nil},
	{"paged", []Option{WithBufferPoolPages(4)}},
}

func openStorageDB(t testing.TB, fs fsx.FS, extra ...Option) *DB {
	t.Helper()
	opts := append([]Option{WithPath("db"), withFS(fs), WithSync(SyncAlways)}, extra...)
	db, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func stockTuple(i int) Tuple {
	return NewTuple(Str(fmt.Sprintf("item-%05d", i)), Str(fmt.Sprintf("loc-%03d", i%7)))
}

// queryLen evaluates a query and returns the result cardinality.
func queryLen(t testing.TB, db *DB, q string) int {
	t.Helper()
	rel, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	return rel.Len()
}

// TestStorageEnginesWorkload runs one workload — module DDL, single inserts,
// a Tx batch, selector and recursive constructor queries, an explicit
// checkpoint, post-checkpoint writes and an Assign — on each configuration,
// and verifies a close/reopen recovers the identical logical state.
func TestStorageEnginesWorkload(t *testing.T) {
	for _, eng := range storageEngines {
		t.Run(eng.name, func(t *testing.T) {
			fs := fsx.NewMemFS()
			ctx := context.Background()
			db := openStorageDB(t, fs, eng.opts...)
			if _, err := db.Exec(storageSchema); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := db.Insert("Stock", stockTuple(i)); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 40; i < 80; i++ {
				if err := tx.Insert("Stock", stockTuple(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Insert("Links", NewTuple(Str("a"), Str("b"))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("Links", NewTuple(Str("b"), Str("c"))); err != nil {
				t.Fatal(err)
			}

			reach := queryLen(t, db, `Links{reach}`)
			if reach != 3 { // a→b, b→c, a→c
				t.Fatalf("reach: got %d tuples, want 3", reach)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			// Writes after the checkpoint land in the fresh log tail.
			for i := 80; i < 100; i++ {
				if err := db.Insert("Stock", stockTuple(i)); err != nil {
					t.Fatal(err)
				}
			}
			// An overwrite re-encodes the relation's pages.
			links, _ := db.Relation("Links")
			if err := db.Assign("Links", relation.MustFromTuples(links.Type(), pair("x", "y"), pair("y", "z"))); err != nil {
				t.Fatal(err)
			}
			atLoc := queryLen(t, db, `Stock[at("loc-001")]`)
			reach = queryLen(t, db, `Links{reach}`)
			want := saveFaultState(t, db)
			if h := db.Health(); !h.Storage.Enabled || !strings.Contains(h.String(), "storage pool=") {
				t.Errorf("durable session must report storage stats: %s", h)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := openStorageDB(t, fs, eng.opts...)
			defer db2.Close()
			if got := saveFaultState(t, db2); string(got) != string(want) {
				t.Fatal("recovered state differs from the state at close")
			}
			if _, err := db2.Exec(storageSchema); err != nil {
				t.Fatal(err)
			}
			if got := queryLen(t, db2, `Stock[at("loc-001")]`); got != atLoc {
				t.Fatalf("selector after reopen: got %d, want %d", got, atLoc)
			}
			if got := queryLen(t, db2, `Links{reach}`); got != reach {
				t.Fatalf("constructor after reopen: got %d, want %d", got, reach)
			}
		})
	}
}

// TestStorageColdInsertsDecodeNothing: on a paged database two relations
// larger than the residency budget, one read and one written in turn — the
// paged_cold benchmark's cycle — keep the read one resident: each Insert into
// the other checks its key constraint against the key index (built once, by
// a key-only pass over the pages) and appends to the tail page, so the stream
// of inserts decodes nothing, and Health says so.
func TestStorageColdInsertsDecodeNothing(t *testing.T) {
	fs := fsx.NewMemFS()
	db := openStorageDB(t, fs, WithBufferPoolPages(1))
	if _, err := db.Exec(storageSchema); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Stock", "Links"} {
		batch := make([]Tuple, 3000) // ≈ 60 KB of pages; the budget is 32 KB
		for i := range batch {
			batch[i] = stockTuple(i)
		}
		if err := db.Insert(name, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openStorageDB(t, fs, WithBufferPoolPages(1))
	defer db.Close()
	// Reading Links last leaves it the resident one, as the benchmark's
	// verification pass does.
	if _, ok := db.Relation("Links"); !ok {
		t.Fatal("Links unreadable after reopen")
	}
	before := db.Health().Storage
	for i := 0; i < 10; i++ {
		if rel, ok := db.Relation("Stock"); !ok || rel.Len() != 3000 {
			t.Fatalf("cycle %d: Stock unreadable", i)
		}
		if err := db.Insert("Links", stockTuple(3000+i), stockTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := db.Health()
	if st := h.Storage; st.Materializations-before.Materializations != 1 || st.KeyIndexBuilds-before.KeyIndexBuilds != 1 || st.ResidentRelations < 1 {
		t.Fatalf("ten read/insert cycles: %d materializations, %d key-index builds, %d resident (want 1, 1, ≥1)",
			st.Materializations-before.Materializations, st.KeyIndexBuilds-before.KeyIndexBuilds, st.ResidentRelations)
	}
	if want := fmt.Sprintf("materializations=%d key-index-builds=%d", h.Storage.Materializations, h.Storage.KeyIndexBuilds); !strings.Contains(h.String(), want) {
		t.Errorf("health string does not account for the inserts: %s", h)
	}
	if rel, ok := db.Relation("Links"); !ok || rel.Len() != 3010 {
		t.Fatal("Links lost or duplicated tuples")
	}
}

// TestStorageInsertsIntoRelationsThatFitStayResident: the key index is only
// for relations larger than the residency budget. Inserts alternating between
// two non-resident relations that fit it together decode each once and then
// grow the resident values, O(batch) per Insert, with no key-index pass.
func TestStorageInsertsIntoRelationsThatFitStayResident(t *testing.T) {
	fs := fsx.NewMemFS()
	db := openStorageDB(t, fs, WithBufferPoolPages(1))
	if _, err := db.Exec(storageSchema); err != nil {
		t.Fatal(err)
	}
	names := []string{"Stock", "Links"}
	for _, name := range names {
		batch := make([]Tuple, 200) // ≈ 4 KB of pages each; the budget is 32 KB
		for i := range batch {
			batch[i] = stockTuple(i)
		}
		if err := db.Insert(name, batch...); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint, so that after the reopen both live on pages, not resident.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openStorageDB(t, fs, WithBufferPoolPages(1))
	defer db.Close()
	before := db.Health().Storage
	if before.ResidentRelations != 0 {
		t.Fatalf("%d relations resident right after reopen", before.ResidentRelations)
	}
	for i := 0; i < 20; i++ {
		for _, name := range names {
			if err := db.Insert(name, stockTuple(200+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Health().Storage
	if mats, builds := st.Materializations-before.Materializations, st.KeyIndexBuilds-before.KeyIndexBuilds; mats != 2 || builds != 0 || st.ResidentRelations != 2 {
		t.Fatalf("40 alternating inserts: %d materializations, %d key-index builds, %d resident (want 2, 0, 2)", mats, builds, st.ResidentRelations)
	}
	for _, name := range names {
		if rel, ok := db.Relation(name); !ok || rel.Len() != 220 {
			t.Fatalf("%s lost or duplicated tuples", name)
		}
	}
}

// TestStoragePagedRequiresPath: the heap file is the paged engine's primary
// copy, so a memory-only paged session is refused at Open.
func TestStoragePagedRequiresPath(t *testing.T) {
	if _, err := Open(WithEngine(EnginePaged)); err == nil || !strings.Contains(err.Error(), "WithPath") {
		t.Fatalf("paged engine without WithPath: got %v, want a pointed error", err)
	}
}

// TestStorageBiggerThanPoolCycle is the acceptance cycle: a database whose
// heap exceeds the buffer pool completes insert, selector-query, checkpoint,
// and recovery rounds, and the pool actually evicted along the way.
func TestStorageBiggerThanPoolCycle(t *testing.T) {
	fs := fsx.NewMemFS()
	ctx := context.Background()
	db := openStorageDB(t, fs, WithBufferPoolPages(4))
	if _, err := db.Exec(storageSchema); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for lo := 0; lo < n; lo += 500 {
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < lo+500; i++ {
			if err := tx.Insert("Stock", stockTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := queryLen(t, db, `Stock[at("loc-003")]`); got != n/7+1 {
		t.Fatalf("selector over spilled relation: got %d, want %d", got, n/7+1)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h := db.Health()
	if h.Storage.HeapSlots <= int64(h.Storage.PoolPages) {
		t.Fatalf("workload fits the pool (%d slots, pool %d): not the scenario under test",
			h.Storage.HeapSlots, h.Storage.PoolPages)
	}
	if h.Storage.Evictions == 0 {
		t.Errorf("no pool evictions on a bigger-than-pool workload: %+v", h.Storage)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStorageDB(t, fs, WithBufferPoolPages(4))
	defer db2.Close()
	if _, err := db2.Exec(storageSchema); err != nil {
		t.Fatal(err)
	}
	if got := queryLen(t, db2, `Stock[at("loc-003")]`); got != n/7+1 {
		t.Fatalf("selector after recovery: got %d, want %d", got, n/7+1)
	}
	if err := db2.Insert("Stock", stockTuple(n)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// TestStorageIncrementalCheckpointSmallDelta pins the acceptance ratio: on a
// database holding a 10 000-tuple relation, the checkpoint after a one-batch
// delta writes under 1 % of the bytes of the database's Save image, which is
// what every checkpoint of a durable database wrote before checkpoints
// flushed pages: one tail page plus the manifest. It holds on both
// configurations, and on the default one the checkpoint leaves no frame in
// the pool.
func TestStorageIncrementalCheckpointSmallDelta(t *testing.T) {
	const n = 10_000
	pad := strings.Repeat("x", 80)
	bulk := make([]Tuple, n)
	for i := range bulk {
		bulk[i] = NewTuple(Str(fmt.Sprintf("item-%05d-%s", i, pad)), Str(fmt.Sprintf("loc-%03d", i%7)))
	}
	for _, eng := range storageEngines {
		t.Run(eng.name, func(t *testing.T) {
			db := openStorageDB(t, fsx.NewMemFS(), eng.opts...)
			defer db.Close()
			if _, err := db.Exec(storageSchema); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("Stock", bulk...); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if full := db.Health().Storage.LastCheckpointBytes; full == 0 {
				t.Fatal("full checkpoint reported zero bytes")
			}
			batch := make([]Tuple, 5)
			for j := range batch {
				batch[j] = NewTuple(Str(fmt.Sprintf("delta-%d", j)), Str("loc-delta"))
			}
			if err := db.Insert("Stock", batch...); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st := db.Health().Storage
			full := uint64(len(saveFaultState(t, db)))
			if st.LastCheckpointBytes == 0 || 100*st.LastCheckpointBytes >= full {
				t.Fatalf("checkpoint after a %d-tuple delta wrote %d bytes; the Save image is %d (want under 1%%)",
					len(batch), st.LastCheckpointBytes, full)
			}
			if eng.opts == nil && st.PoolUsed != 0 {
				t.Fatalf("%d clean frames stay in the pool after a checkpoint with unbounded residency", st.PoolUsed)
			}
		})
	}
}

// TestStorageRefusesSaveImageSnapshot: a directory whose newest snapshot is a
// Save image — the checkpoint format before every durable database
// checkpointed pages — does not open. The error names the Save image and
// DB.LoadStore, which imports one into an open database, and the snapshot and
// log keep their bytes.
func TestStorageRefusesSaveImageSnapshot(t *testing.T) {
	st := store.NewDatabase()
	if err := st.Declare("R", faultPairType()); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("R", pair("a", "b"), pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := st.Save(&img); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string][]byte{"snap-0000000002.dbpl": img.Bytes(), "wal-0000000002.log": {}}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if db, err := Open(WithPath(dir), WithSync(SyncNever)); err == nil {
		_ = db.Close()
		t.Fatal("Open recovered from a Save-image snapshot")
	} else if !strings.Contains(err.Error(), "Save image") || !strings.Contains(err.Error(), "DB.LoadStore") {
		t.Fatalf("Open over a Save-image snapshot: %v; want an error naming the Save image and DB.LoadStore", err)
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed by the refused Open (%v)", name, err)
		}
	}
	for _, pattern := range []string{"snap-*", "wal-*"} {
		if m, err := filepath.Glob(filepath.Join(dir, pattern)); err != nil || len(m) != 1 {
			t.Errorf("%s files after the refused Open: %v (%v), want the one written", pattern, m, err)
		}
	}
}

// TestStorageDegradedCheckpointFailsFast (regression): Checkpoint on a
// degraded session reports the standard *DegradedError contract without
// touching the poisoned log — no filesystem operations at all.
func TestStorageDegradedCheckpointFailsFast(t *testing.T) {
	k := faultIndexAfterSeed(t, fsx.OpSync, "wal-", func(db *DB) {
		if err := db.Insert("R", pair("c", "d")); err != nil {
			t.Fatal(err)
		}
	})
	ffs := fsx.NewFaultFS(fsx.NewMemFS())
	ffs.Inject(fsx.Fault{Index: k})
	db := openFaultDB(t, ffs)
	defer db.Close()
	seedFaultDB(t, db)
	if err := db.Insert("R", pair("c", "d")); err == nil {
		t.Fatal("insert over failed fsync reported success")
	}
	ops := ffs.OpCount()
	err := db.Checkpoint()
	if err == nil {
		t.Fatal("Checkpoint on a degraded session reported success")
	}
	var de *DegradedError
	if !errors.As(err, &de) || !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded Checkpoint: got %v, want *DegradedError matching ErrReadOnly", err)
	}
	if got := ffs.OpCount(); got != ops {
		t.Errorf("degraded Checkpoint performed %d filesystem operations; must fail fast with none", got-ops)
	}
}

// TestStorageRowsStreamUnderEvictionPressure holds Rows cursors open across
// an in-flight stream while a writer forces buffer-pool and residency
// eviction; run under -race. Streams must observe their snapshot unharmed
// and the session must not leak goroutines.
func TestStorageRowsStreamUnderEvictionPressure(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		fs := fsx.NewMemFS()
		ctx := context.Background()
		db := openStorageDB(t, fs, WithBufferPoolPages(2))
		defer db.Close()
		if _, err := db.Exec(storageSchema); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		const base = 600
		for i := 0; i < base; i++ {
			if err := tx.Insert("Stock", stockTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		errc := make(chan error, 8)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rows, err := db.QueryContext(ctx, `{EACH s IN Stock: TRUE}`)
					if err != nil {
						errc <- fmt.Errorf("query: %w", err)
						return
					}
					n := 0
					for rows.Next() {
						_ = rows.Tuple()
						n++
					}
					if err := rows.Err(); err != nil {
						errc <- fmt.Errorf("stream: %w", err)
						return
					}
					_ = rows.Close()
					if n < base {
						errc <- fmt.Errorf("stream saw %d rows, committed floor is %d", n, base)
						return
					}
				}
			}()
		}
		// Writer: append through the tiny pool, checkpointing periodically so
		// eviction, write-back, and slot retirement all run under the streams.
		for i := base; i < base+400; i++ {
			if err := db.Insert("Stock", stockTuple(i)); err != nil {
				t.Fatal(err)
			}
			if i%100 == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	}()
	// Goroutine-leak check: allow the runtime a few beats to retire workers.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStoragePageReadErrorSurfaces: a variable the paged engine cannot read
// fails the evaluation with that I/O error, naming the variable — it is never
// silently missing ("unknown relation") — and because page I/O errors are
// retryable, the next attempt succeeds.
func TestStoragePageReadErrorSurfaces(t *testing.T) {
	ctx := context.Background()
	// cold builds a paged database whose Stock lives only in the heap file:
	// loaded, checkpointed, closed and reopened.
	cold := func(t *testing.T, ffs *fsx.FaultFS) *DB {
		t.Helper()
		db := openStorageDB(t, ffs, WithBufferPoolPages(2))
		if _, err := db.Exec(storageSchema); err != nil {
			t.Fatal(err)
		}
		tuples := make([]Tuple, 200)
		for i := range tuples {
			tuples[i] = stockTuple(i)
		}
		if err := db.Insert("Stock", tuples...); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = openStorageDB(t, ffs, WithBufferPoolPages(2))
		if _, err := db.Exec(storageSchema); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		name string
		read func(db *DB) error
	}{
		{"Query", func(db *DB) error {
			rel, err := db.Query(`Stock[at("loc-003")]`)
			if err == nil && rel.Len() == 0 {
				return errors.New("Stock[at] selected nothing")
			}
			return err
		}},
		{"Begin", func(db *DB) error {
			tx, err := db.Begin(ctx)
			if err != nil {
				return err
			}
			defer tx.Rollback() //nolint:errcheck // read-only probe
			if rel, ok := tx.Relation("Stock"); !ok || rel.Len() != 200 {
				return errors.New("transaction does not see Stock")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Pilot: the index of the first heap-page read the operation does.
			pfs := fsx.NewFaultFS(fsx.NewMemFS())
			db := cold(t, pfs)
			before := pfs.OpCount()
			if err := tc.read(db); err != nil {
				t.Fatalf("pilot: %v", err)
			}
			k := -1
			for i, op := range pfs.Ops()[before:] {
				if op.Kind == fsx.OpRead && strings.Contains(op.Path, "heap") {
					k = before + i
					break
				}
			}
			_ = db.Close()
			if k < 0 {
				t.Fatal("pilot read no heap page: Stock was not cold")
			}

			ffs := fsx.NewFaultFS(fsx.NewMemFS())
			ffs.Inject(fsx.Fault{Index: k, Err: syscall.EIO})
			db = cold(t, ffs)
			defer db.Close()
			err := tc.read(db)
			if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), `"Stock"`) {
				t.Fatalf("over a failed page read: %v, want the injected EIO naming Stock", err)
			}
			if h := db.Health(); !errors.Is(h.Storage.Err, syscall.EIO) {
				t.Errorf("Health().Storage.Err = %v, want the injected EIO", h.Storage.Err)
			}
			if err := tc.read(db); err != nil {
				t.Fatalf("retry after the transient fault: %v", err)
			}
		})
	}
}
