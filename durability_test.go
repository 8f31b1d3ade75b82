package dbpl_test

// Crash-recovery torture tests for the durable store: kill writes
// mid-commit (truncated / corrupt log tail), reopen, and verify exactly the
// committed prefix is visible — including a Tx whose batch was half-written
// — plus -race coverage of concurrent queries during checkpointing.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	dbpl "repro"
)

// cadSchema is cadModule without the seed assignment: re-executed after a
// reopen to restore the non-persistent declarations (types, selector,
// constructor) over the recovered base relations.
const cadSchema = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END cad.
`

func openDurable(t testing.TB, dir string, opts ...dbpl.Option) *dbpl.DB {
	t.Helper()
	db, err := dbpl.Open(append([]dbpl.Option{dbpl.WithPath(dir), dbpl.WithSync(dbpl.SyncNever)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func saveState(t testing.TB, db *dbpl.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// theWalFile returns the single write-ahead log file in dir.
func theWalFile(t testing.TB, dir string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("expected exactly one wal file, got %v (err %v)", logs, err)
	}
	return logs[0]
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	db := openDurable(t, dir)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("floor"), dbpl.Str("rug"))); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("rug"), dbpl.Str("cellar"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := saveState(t, db)
	derived, err := db.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("recovered base relations differ from the state at close")
	}
	// Derived constructor results are not logged: re-execute the schema and
	// they recompute from the recovered base relations.
	if _, err := db2.Exec(cadSchema); err != nil {
		t.Fatal(err)
	}
	derived2, err := db2.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if derived2.String() != derived.String() {
		t.Fatalf("derived relation did not recompute: got %s, want %s", derived2, derived)
	}
}

func TestDurableCrashMidCommitRecoversCommittedPrefix(t *testing.T) {
	// cut is how many bytes of the final Tx commit record survive the
	// "crash": tiny cuts tear the frame header, larger ones the batch
	// payload — in every case the half-written batch must vanish whole.
	for _, cut := range []int64{1, 4, 9, 17} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()

			db := openDurable(t, dir)
			if _, err := db.Exec(cadModule); err != nil {
				t.Fatal(err)
			}
			committed := saveState(t, db)

			// The doomed transaction writes two variables' worth of state in
			// one batch... here one variable, two tuples, atomically.
			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("x1"), dbpl.Str("x2"))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("x2"), dbpl.Str("x3"))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			walPath := theWalFile(t, dir)
			db.Close()

			// Crash: the tail of the commit record never reached the disk.
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			db2 := openDurable(t, dir)
			defer db2.Close()
			if got := saveState(t, db2); !bytes.Equal(got, committed) {
				t.Fatal("recovered state is not byte-for-byte the committed prefix")
			}
			if _, err := db2.Exec(cadSchema); err != nil {
				t.Fatal(err)
			}
			rows, err := db2.QueryContext(ctx, `Infront[hidden_by("x1")]`)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Len() != 0 {
				t.Fatal("tuple from the half-written transaction is visible")
			}
			rows.Close()
			// The recovered prefix keeps answering recursive queries.
			derived, err := db2.Query(`Infront{ahead}`)
			if err != nil {
				t.Fatal(err)
			}
			if derived.Len() == 0 {
				t.Fatal("derived constructor empty after recovery")
			}
		})
	}
}

func TestDurableCorruptTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	committed := saveState(t, db)
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("y1"), dbpl.Str("y2"))); err != nil {
		t.Fatal(err)
	}
	walPath := theWalFile(t, dir)
	db.Close()

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(walPath, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("bit-flipped tail record was not dropped")
	}
}

func TestDurableSnapshotPlusTailRoundTrip(t *testing.T) {
	// Force a checkpoint, keep committing past it, crash in the tail:
	// recovery is snapshot + committed tail, byte-for-byte.
	dir := t.TempDir()
	db := openDurable(t, dir, dbpl.WithCheckpointEvery(-1))
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("t1"), dbpl.Str("t2"))); err != nil {
		t.Fatal(err)
	}
	committed := saveState(t, db)
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("t3"), dbpl.Str("t4"))); err != nil {
		t.Fatal(err)
	}
	walPath := theWalFile(t, dir)
	db.Close()
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("snapshot + truncated tail did not round-trip the committed state")
	}
}

func TestDurableLoadStoreLogged(t *testing.T) {
	// LoadStore swaps the whole store; on a durable DB the replacement state
	// must be persisted (as a snapshot checkpoint) and survive reopen.
	src := openWith(t, cadModule)
	var img bytes.Buffer
	if err := src.Save(&img); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db := openDurable(t, dir)
	if _, err := db.Exec(`MODULE pre;
TYPE t = STRING;
TYPE rel = RELATION OF RECORD a: t END;
VAR Doomed: rel;
Doomed := {<"gone">};
END pre.`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadStore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := saveState(t, db)
	db.Close()

	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("LoadStore replacement state did not survive reopen")
	}
	if _, ok := db2.Relation("Doomed"); ok {
		t.Fatal("pre-LoadStore variable survived the logged reset")
	}
}

// TestDurableConcurrentLoadStore: LoadStore on a durable database replaces
// the variables inside the pages every other caller reads and writes. Under
// -race, with inserters and readers running throughout, every read sees at
// least the image, an insert racing a replacement either lands or fails —
// it never publishes into the replacement unlogged — and a reopen recovers
// exactly the state at close.
func TestDurableConcurrentLoadStore(t *testing.T) {
	img := saveState(t, openWith(t, cadModule))
	dir := t.TempDir()
	db := openDurable(t, dir, dbpl.WithCheckpointEvery(4))
	if err := db.LoadStore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	base, _ := db.Relation("Infront")
	floor := base.Len()
	// A writer still holding the replaced store, deterministically.
	stale := db.StoreSnapshot()
	if err := db.LoadStore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if err := stale.Insert("Infront", dbpl.NewTuple(dbpl.Str("stale"), dbpl.Str("z"))); err == nil {
		t.Fatal("an insert through the replaced store succeeded")
	}
	if rel, _ := db.Relation("Infront"); rel.Len() != floor {
		t.Fatal("an insert through the replaced store reached the replacement")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.LoadStore(bytes.NewReader(img)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = db.Insert("Infront", dbpl.NewTuple(dbpl.Str(fmt.Sprintf("g%d-%d", g, i)), dbpl.Str("z")))
				if rel, ok := db.Relation("Infront"); !ok || rel.Len() < floor {
					errs <- fmt.Errorf("Infront read during LoadStore: declared %v, want at least the image's %d tuples", ok, floor)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := saveState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("reopen after concurrent LoadStore and inserts differs from the state at close")
	}
}

func TestDurableCloseRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	want := saveState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("a"), dbpl.Str("b")))
	if !errors.Is(err, dbpl.ErrClosed) {
		t.Fatalf("Insert after Close: got %v, want ErrClosed", err)
	}
	// Queries keep answering from memory, and the rejected write is neither
	// in memory nor resurrected on the next open.
	if got := saveState(t, db); !bytes.Equal(got, want) {
		t.Fatal("rejected mutation changed in-memory state")
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("rejected mutation resurfaced after reopen")
	}
}

func TestDurableConcurrentQueriesDuringCheckpoints(t *testing.T) {
	// -race coverage: writers forcing automatic checkpoints every few
	// records, explicit Checkpoint calls, and constructor queries all at
	// once.
	dir := t.TempDir()
	db := openDurable(t, dir, dbpl.WithCheckpointEvery(4))
	defer db.Close()
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}

	const writers, readers, perG = 3, 3, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tup := dbpl.NewTuple(
					dbpl.Str(fmt.Sprintf("w%d-%d", w, i)),
					dbpl.Str(fmt.Sprintf("w%d-%d'", w, i)))
				if err := db.Insert("Infront", tup); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				rel, err := db.Query(`Infront{ahead}`)
				if err != nil {
					errs <- err
					return
				}
				if rel.Len() < 3 {
					errs <- fmt.Errorf("derived relation shrank to %d", rel.Len())
					return
				}
				rows, err := db.QueryContext(ctx, `Infront[hidden_by("vase")]`)
				if err != nil {
					errs <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Everything the writers committed survives a reopen.
	want := saveState(t, db)
	db.Close()
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("state after concurrent checkpointing did not survive reopen")
	}
	rel, ok := db2.Relation("Infront")
	if !ok || rel.Len() != 3+writers*perG {
		t.Fatalf("recovered %d tuples, want %d", rel.Len(), 3+writers*perG)
	}
}

// edge builds one Infront tuple.
func edge(front, back string) dbpl.Tuple {
	return dbpl.NewTuple(dbpl.Str(front), dbpl.Str(back))
}

// walSize returns the current size of the single log file in dir.
func walSize(t testing.TB, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(theWalFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestTxInsertFailedCallIsAtomic: a Tx.Insert that fails mid-batch on an
// overlay the transaction already owns must leave none of its tuples behind.
// A leftover tuple would be published by Commit without ever reaching the
// observer or the log's insert delta — a stale maintained closure, and a log
// that diverges from the published state.
func TestTxInsertFailedCallIsAtomic(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`Infront{ahead}`); err != nil { // install the view
		t.Fatal(err)
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Infront", edge("door", "floor")); err != nil { // the tx now owns its overlay
		t.Fatal(err)
	}
	bad := dbpl.NewTuple(dbpl.Str("cellar"), dbpl.Int(7))
	if err := tx.Insert("Infront", edge("floor", "cellar"), bad); err == nil {
		t.Fatal("insert of a tuple outside the element type succeeded")
	}
	if rel, _ := tx.Relation("Infront"); rel.Contains(edge("floor", "cellar")) {
		t.Fatal("failed Tx.Insert left an earlier tuple of the call in the overlay")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// (a) The maintained closure equals a from-scratch recompute.
	base, _ := db.Relation("Infront")
	ref := openWith(t, cadModule, dbpl.WithoutMaterialization())
	if err := ref.Assign("Infront", base); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("maintained closure has %d tuples, from-scratch recompute %d", got.Len(), want.Len())
	}

	// (b) The log replays to the published state.
	image := saveState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, image) {
		t.Fatal("reopened state differs from the state at close")
	}
}

// bulkEdges returns n distinct edges named with the given prefix.
func bulkEdges(prefix string, n int) []dbpl.Tuple {
	out := make([]dbpl.Tuple, n)
	for i := range out {
		out[i] = edge(fmt.Sprintf("%s%06d", prefix, i), fmt.Sprintf("%s%06d'", prefix, i))
	}
	return out
}

// TestDurableTxInsertLogsDelta: an insert-only transaction costs the log what
// it changed, not what it touched — 64 tuples into a 50k-row variable grow
// the log by O(batch) bytes — and the delta record replays byte-equal.
func TestDurableTxInsertLogsDelta(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir, dbpl.WithCheckpointEvery(-1))
	if _, err := db.Exec(cadSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Infront", bulkEdges("b", 50_000)...); err != nil {
		t.Fatal(err)
	}
	before := walSize(t, dir)

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Infront", bulkEdges("d", 64)...); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if grew := walSize(t, dir) - before; grew <= 0 || grew >= 8<<10 {
		t.Fatalf("64-tuple Tx.Insert commit grew the log by %d bytes, want (0, 8 KB)", grew)
	}

	want := saveState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		t.Fatal("delta commit record did not replay to the state at close")
	}
}

// TestDurableOvertakenTxLogsFullValue: two transactions insert from one
// snapshot and both commit. The first is growth over a base nobody overtook;
// the second's base is no longer published, so its commit is a last-writer-
// wins replacement and must log the full value — replaying its inserts over
// the first's result would resurrect tuples the published state dropped.
func TestDurableOvertakenTxLogsFullValue(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := openDurable(t, dir, dbpl.WithCheckpointEvery(-1))
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Insert("Infront", edge("one", "one'")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert("Infront", edge("two", "two'")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("Infront")
	if rel.Contains(edge("one", "one'")) || !rel.Contains(edge("two", "two'")) || rel.Len() != 4 {
		t.Fatalf("published state is not the second writer's snapshot plus its insert: %s", rel)
	}

	want := saveState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	if got := saveState(t, db2); !bytes.Equal(got, want) {
		rel2, _ := db2.Relation("Infront")
		t.Fatalf("recovery diverged from the published last-writer-wins state: %s", rel2)
	}
}
