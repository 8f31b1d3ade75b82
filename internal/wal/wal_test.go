package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

func pairType(name string) schema.RelationType {
	return schema.RelationType{
		Name: name,
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "front", Type: schema.StringType()},
			{Name: "back", Type: schema.StringType()},
		}},
		Key: []string{"front", "back"},
	}
}

func tup(a, b string) value.Tuple {
	return value.NewTuple(value.Str(a), value.Str(b))
}

// resident wires opts to a fresh page engine over dir with unbounded
// residency, as a durable session without WithBufferPoolPages does, and
// returns the engine.
func resident(t testing.TB, dir string, opts Options) (Options, *pagestore.Engine) {
	t.Helper()
	pager, err := pagestore.Open(dir, pagestore.Config{FS: opts.FS, ResidentBytes: -1})
	if err != nil {
		t.Fatalf("pagestore.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { _ = pager.Close() })
	opts.NewStore = func() (*store.Database, error) { return store.NewDatabaseWith(pager), nil }
	opts.LoadSnapshot = pager.Load
	opts.OnCheckpoint = pager.CheckpointCommitted
	return opts, pager
}

// openAttached opens the log over a resident page engine and attaches it to
// the recovered store.
func openAttached(t *testing.T, dir string, opts Options) (*Log, *store.Database) {
	t.Helper()
	opts, _ = resident(t, dir, opts)
	l, db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	db.SetLogger(l)
	return l, db
}

func saveBytes(t *testing.T, db *store.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func walFile(t *testing.T, dir string, l *Log) string {
	t.Helper()
	return filepath.Join(dir, "wal-"+padGen(l.Generation())+".log")
}

func padGen(g uint64) string { return fmt.Sprintf("%010d", g) }

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openAttached(t, dir, Options{Sync: SyncNever})
	if err := db.Declare("Infront", pairType("infrontrel")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Infront", tup("vase", "table"), tup("table", "chair")); err != nil {
		t.Fatal(err)
	}
	rel := relation.New(pairType("infrontrel"))
	for _, tp := range []value.Tuple{tup("a", "b"), tup("b", "c")} {
		if err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Assign("Infront", rel); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, db)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs:\ngot  %x\nwant %x", got, want)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7} { // inside payload, inside header
		l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
		dir := l.Dir()
		if err := db.Declare("R", pairType("r")); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("R", tup("a", "b")); err != nil {
			t.Fatal(err)
		}
		committed := saveBytes(t, db)
		if err := db.Insert("R", tup("c", "d")); err != nil {
			t.Fatal(err)
		}
		path := walFile(t, dir, l)
		l.Close()

		// Kill the last record mid-write.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		l2, db2 := openAttached(t, dir, Options{})
		if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
			t.Fatalf("cut=%d: recovered state is not the committed prefix", cut)
		}
		// The truncated log must accept new appends cleanly.
		if err := db2.Insert("R", tup("e", "f")); err != nil {
			t.Fatal(err)
		}
		after := saveBytes(t, db2)
		l2.Close()
		l3, db3 := openAttached(t, dir, Options{})
		if got := saveBytes(t, db3); !bytes.Equal(got, after) {
			t.Fatalf("cut=%d: append after truncation did not survive reopen", cut)
		}
		l3.Close()
	}
}

func TestCorruptTailDropped(t *testing.T) {
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	committed := saveBytes(t, db)
	if err := db.Insert("R", tup("c", "d")); err != nil {
		t.Fatal(err)
	}
	path := walFile(t, dir, l)
	l.Close()

	// Flip a byte in the last record's payload: CRC must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("corrupt tail record was not dropped")
	}
}

func TestBatchAtomicity(t *testing.T) {
	// A transaction commit is one batch record: a half-written batch must
	// vanish entirely, never apply partially.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("A", pairType("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Declare("B", pairType("b")); err != nil {
		t.Fatal(err)
	}
	committed := saveBytes(t, db)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("A", tup("a1", "a2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("B", tup("b1", "b2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	path := walFile(t, dir, l)
	l.Close()

	// Cut into the middle of the commit batch: B's part of the record goes,
	// and with it the whole batch.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-6); err != nil {
		t.Fatal(err)
	}

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("half-written commit batch partially applied")
	}
	if rel, _ := db2.Get("A"); rel.Len() != 0 {
		t.Fatal("A received tuples from a torn batch")
	}
	if rel, _ := db2.Get("B"); rel.Len() != 0 {
		t.Fatal("B received tuples from a torn batch")
	}
}

func TestAutomaticCheckpointRotation(t *testing.T) {
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever, CheckpointEvery: 4})
	dir := l.Dir()
	if err := db.Declare("R", schema.RelationType{
		Name: "r",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "n", Type: schema.ScalarType{Name: "INTEGER", Kind: value.KindInt}},
		}},
		Key: []string{"n"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("R", value.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if g := l.Generation(); g < 2 {
		t.Fatalf("no rotation after 21 records (generation %d)", g)
	}
	if n := l.TailRecords(); n >= 21 {
		t.Fatalf("log not compacted: %d tail records", n)
	}
	want := saveBytes(t, db)
	gen := l.Generation()
	l.Close()

	// Exactly one generation of files remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "snap-"+padGen(gen)+".dbpl" && e.Name() != "wal-"+padGen(gen)+".log" && e.Name() != "pages.heap" {
			t.Fatalf("stale file %s after rotation", e.Name())
		}
	}

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("snapshot+tail recovery after rotation differs")
	}
}

func TestManualCheckpointAndSnapshotTornTail(t *testing.T) {
	// The acceptance scenario: snapshot checkpoint + truncated tail must
	// round-trip byte-for-byte equal state.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever, CheckpointEvery: -1})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := l.TailRecords(); n != 0 {
		t.Fatalf("checkpoint left %d tail records", n)
	}
	if err := db.Insert("R", tup("c", "d")); err != nil {
		t.Fatal(err)
	}
	committed := saveBytes(t, db)
	if err := db.Insert("R", tup("e", "f")); err != nil {
		t.Fatal(err)
	}
	path := walFile(t, dir, l)
	l.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("snapshot + truncated tail did not recover the committed prefix")
	}
}

func TestAdoptLoggerReplacesState(t *testing.T) {
	// AdoptLogger persists the adopted store as a snapshot checkpoint that
	// supersedes everything the log held before — here, as in LoadStore, a
	// replacement built in the page engine the old store ran on.
	dir := t.TempDir()
	opts, pager := resident(t, dir, Options{Sync: SyncNever})
	l, db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLogger(l)
	if err := db.Declare("Old", pairType("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Old", tup("x", "y")); err != nil {
		t.Fatal(err)
	}

	db.SetLogger(nil)
	done := pager.Replace()
	repl := store.NewDatabaseWith(pager)
	if err := repl.Declare("New", pairType("new")); err != nil {
		t.Fatal(err)
	}
	if err := repl.Insert("New", tup("n1", "n2")); err != nil {
		t.Fatal(err)
	}
	gen := l.Generation()
	err = repl.AdoptLogger(l)
	done(err == nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := l.Generation(); g != gen+1 {
		t.Fatalf("adoption did not cut a checkpoint: generation %d, want %d", g, gen+1)
	}
	// Mutations after adoption append to the new generation's log.
	if err := repl.Insert("New", tup("n3", "n4")); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, repl)
	l.Close()

	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("adopted state did not replace prior state on recovery")
	}
	if _, ok := db2.Get("Old"); ok {
		t.Fatal("variable from before the adoption still resolves")
	}
}

func TestZeroFilledTailTruncated(t *testing.T) {
	// A crash can persist a file-size extension before the data, leaving a
	// zero-filled tail. Zeros parse as a length-0 frame whose CRC matches
	// (crc32c of nothing is 0): that is a torn tail to truncate, never a
	// RecoveryError — otherwise the database would be unopenable forever.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	committed := saveBytes(t, db)
	path := walFile(t, dir, l)
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for reopen := 0; reopen < 2; reopen++ { // must stay openable
		l2, db2 := openAttached(t, dir, Options{})
		if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
			t.Fatalf("reopen %d: zero-filled tail changed recovered state", reopen)
		}
		l2.Close()
	}
}

func TestNewestSnapshotUnloadableDoesNotRollBack(t *testing.T) {
	// Two complete generations on disk (crash between checkpoint and
	// cleanup) but the newest snapshot does not load: Open must fail, not
	// silently adopt the older generation and delete the newer one.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // generation 2
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // generation 3
		t.Fatal(err)
	}
	gen := l.Generation()
	l.Close()
	// Resurrect the older generation and damage the newest snapshot.
	older := filepath.Join(dir, "snap-"+padGen(gen-1)+".dbpl")
	newest := filepath.Join(dir, "snap-"+padGen(gen)+".dbpl")
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, []byte("damaged"), 0o666); err != nil {
		t.Fatal(err)
	}

	opts, _ := resident(t, dir, Options{})
	_, _, err = Open(dir, opts)
	var ce *CorruptSnapshotError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CorruptSnapshotError, got %v", err)
	}
	// Nothing was deleted: the newest generation is still there for manual
	// repair.
	if _, err := os.Stat(filepath.Join(dir, "wal-"+padGen(gen)+".log")); err != nil {
		t.Fatalf("newest generation's log removed by failed Open: %v", err)
	}
	if _, err := os.Stat(newest); err != nil {
		t.Fatalf("newest snapshot removed by failed Open: %v", err)
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := l.Generation()
	l.Close()
	snap := filepath.Join(dir, "snap-"+padGen(gen)+".dbpl")
	if err := os.WriteFile(snap, []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	opts, _ := resident(t, dir, Options{})
	_, _, err := Open(dir, opts)
	var ce *CorruptSnapshotError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CorruptSnapshotError, got %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	err := db.Insert("R", tup("a", "b"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: got %v, want ErrClosed", err)
	}
	// The rejected insert must not have been published either.
	rel, _ := db.Get("R")
	if rel.Len() != 0 {
		t.Fatal("insert published despite closed log")
	}
}

func TestFailedCommitNotResurrected(t *testing.T) {
	// A commit the caller saw fail must not reappear after recovery.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	committed := saveBytes(t, db)
	l.Close() // forces the next append to fail
	if err := db.Insert("R", tup("a", "b")); err == nil {
		t.Fatal("expected failed insert")
	}
	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("failed commit resurrected by recovery")
	}
}

func TestStaleGenerationCleanup(t *testing.T) {
	// A crash between checkpoint and cleanup leaves two complete
	// generations; Open adopts the newest and removes the stale one.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, db)
	gen := l.Generation()
	l.Close()
	// Resurrect a stale generation 1 log alongside the checkpoint.
	if err := os.WriteFile(filepath.Join(dir, "wal-"+padGen(1)+".log"), []byte("old"), 0o666); err != nil {
		t.Fatal(err)
	}

	l2, db2 := openAttached(t, dir, Options{})
	if g := l2.Generation(); g != gen {
		t.Fatalf("adopted generation %d, want %d", g, gen)
	}
	if got := saveBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("state after stale-generation cleanup differs")
	}
	l2.Close()
	if _, err := os.Stat(filepath.Join(dir, "wal-"+padGen(1)+".log")); !os.IsNotExist(err) {
		t.Fatal("stale generation not removed")
	}
}

func TestMixedBatchOneRecordWholeOrNothing(t *testing.T) {
	// A transaction that inserts into A and assigns B commits as one record
	// holding an insert delta and a full value; torn anywhere, it vanishes
	// whole, and intact it replays whole.
	for _, cut := range []int64{0, 1, 9, 25} {
		l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
		dir := l.Dir()
		for _, name := range []string{"A", "B"} {
			if err := db.Declare(name, pairType(name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Insert("A", tup("a0", "a0'")); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("B", tup("b0", "b0'")); err != nil {
			t.Fatal(err)
		}
		before := saveBytes(t, db)
		records := l.TailRecords()

		sub, err := db.Subscribe(io.Discard, 1)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("A", tup("a1", "a1'")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Assign("B", relation.MustFromTuples(pairType("B"), tup("b1", "b1'"))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := l.TailRecords(); got != records+1 {
			t.Fatalf("mixed commit appended %d records, want 1", got-records)
		}
		batch := <-sub.C
		sub.Close()
		if len(batch) != 2 || batch[0].Op != store.OpInsert || batch[0].Name != "A" || len(batch[0].Tuples) != 1 ||
			batch[1].Op != store.OpAssign || batch[1].Name != "B" {
			t.Fatalf("commit batch is not {insert A delta, assign B}: %+v", batch)
		}
		after := saveBytes(t, db)
		path := walFile(t, dir, l)
		l.Close()

		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}

		l2, db2 := openAttached(t, dir, Options{})
		want := after
		if cut > 0 {
			want = before
		}
		if got := saveBytes(t, db2); !bytes.Equal(got, want) {
			t.Fatalf("cut=%d: mixed commit record was not recovered whole-or-nothing", cut)
		}
		l2.Close()
	}
}

func TestAllAssignBatchStillReplays(t *testing.T) {
	// Logs written before commits carried insert deltas hold a transaction as
	// an all-assign batch of full values; that shape must keep replaying.
	l, db := openAttached(t, t.TempDir(), Options{Sync: SyncNever})
	dir := l.Dir()
	for _, name := range []string{"A", "B"} {
		if err := db.Declare(name, pairType(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("A", tup("old", "old'")); err != nil {
		t.Fatal(err)
	}
	legacy := []store.Mutation{
		{Op: store.OpAssign, Name: "A", Rel: relation.MustFromTuples(pairType("A"), tup("a1", "a1'"), tup("a2", "a2'"))},
		{Op: store.OpAssign, Name: "B", Rel: relation.MustFromTuples(pairType("B"), tup("b1", "b1'"))},
	}
	if err := l.Append(legacy, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	want := store.NewDatabase()
	for _, name := range []string{"A", "B"} {
		if err := want.Declare(name, pairType(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range legacy {
		if err := want.Assign(m.Name, m.Rel); err != nil {
			t.Fatal(err)
		}
	}
	l2, db2 := openAttached(t, dir, Options{})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, saveBytes(t, want)) {
		t.Fatal("all-assign multi-mutation record did not replay")
	}
}

// growCounter counts observer callbacks by kind.
type growCounter struct{ grows, resets int }

func (c *growCounter) CommittedGrow(string, []value.Tuple, *relation.Relation) { c.grows++ }
func (c *growCounter) CommittedReset(string, *relation.Relation)               { c.resets++ }

func TestApplyReplaysInsertBatchAsGrowth(t *testing.T) {
	// Replaying a batch of insert deltas re-classifies as growth: the
	// replica's observers maintain instead of resetting.
	db := store.NewDatabase()
	for _, name := range []string{"A", "B"} {
		if err := db.Declare(name, pairType(name)); err != nil {
			t.Fatal(err)
		}
	}
	var obs growCounter
	db.SetObserver(&obs)
	payload, err := EncodeBatch([]store.Mutation{
		{Op: store.OpInsert, Name: "A", Tuples: []value.Tuple{tup("a1", "a1'")}},
		{Op: store.OpInsert, Name: "B", Tuples: []value.Tuple{tup("b1", "b1'"), tup("b2", "b2'")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(db, batch); err != nil {
		t.Fatal(err)
	}
	if obs.grows != 2 || obs.resets != 0 {
		t.Fatalf("replayed insert batch observed as %d grows, %d resets; want 2, 0", obs.grows, obs.resets)
	}
	if a, _ := db.Get("A"); a.Len() != 1 {
		t.Fatalf("A has %d tuples after replay", a.Len())
	}
	if b, _ := db.Get("B"); b.Len() != 2 {
		t.Fatalf("B has %d tuples after replay", b.Len())
	}

	// A batch that fails midway publishes nothing.
	bad := []store.Mutation{
		{Op: store.OpInsert, Name: "A", Tuples: []value.Tuple{tup("a2", "a2'")}},
		{Op: store.OpInsert, Name: "Missing", Tuples: []value.Tuple{tup("x", "y")}},
	}
	if err := Apply(db, bad); err == nil {
		t.Fatal("batch naming an undeclared variable applied")
	}
	if a, _ := db.Get("A"); a.Len() != 1 {
		t.Fatal("failed batch was partially published")
	}
}
