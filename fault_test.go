package dbpl

// Session-level fault injection: these tests drive the public API over the
// fault-scripted in-memory filesystem (via the test-only withFS option) and
// verify the degraded read-only contract — writes refused with *DegradedError
// matching ErrReadOnly, reads still served from the last published state,
// Health reporting the cause — and that recovery after a simulated crash is
// exactly the committed prefix. The wal-level every-fault-point sweep lives in
// internal/wal; here the subject is the session layer's failure semantics.

import (
	"bytes"
	"context"
	"errors"
	"syscall"
	"testing"
	"time"

	"repro/internal/fsx"
	"repro/internal/relation"
)

const faultDir = "db"

func faultPairType() RelationType {
	return RelationType{
		Name: "pair",
		Element: RecordType{Attrs: []Attribute{
			{Name: "x", Type: StringType()},
			{Name: "y", Type: StringType()},
		}},
		Key: []string{"x", "y"},
	}
}

func pair(a, b string) Tuple { return NewTuple(Str(a), Str(b)) }

// openFaultDB opens a durable session over the given filesystem.
func openFaultDB(t *testing.T, fs fsx.FS, extra ...Option) *DB {
	t.Helper()
	opts := append([]Option{WithPath(faultDir), withFS(fs), WithSync(SyncAlways)}, extra...)
	db, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// seedFaultDB declares R and S and commits one tuple into R — the
// deterministic setup shared by pilot runs (which locate fault indexes) and
// faulted runs.
func seedFaultDB(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Declare("R", faultPairType()); err != nil {
		t.Fatal(err)
	}
	if err := db.Declare("S", faultPairType()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", pair("a", "b")); err != nil {
		t.Fatal(err)
	}
}

func saveFaultState(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// faultIndexAfterSeed runs a pilot and returns the index of the first
// operation matching kind+substr performed by probe after the seed.
func faultIndexAfterSeed(t *testing.T, kind fsx.OpKind, substr string, probe func(db *DB)) int {
	t.Helper()
	pfs := fsx.NewFaultFS(fsx.NewMemFS())
	db := openFaultDB(t, pfs)
	seedFaultDB(t, db)
	before := pfs.OpCount()
	probe(db)
	ops := pfs.Ops()
	_ = db.Close()
	for i := before; i < len(ops); i++ {
		if ops[i].Kind == kind && bytes.Contains([]byte(ops[i].Path), []byte(substr)) {
			return i
		}
	}
	t.Fatalf("pilot run performed no %v op matching %q after the seed", kind, substr)
	return -1
}

// TestFaultSessionDegradedReadOnly: a failed commit fsync degrades the
// session to read-only. Every write path fails with a *DegradedError that
// matches ErrReadOnly and unwraps to the I/O cause; reads — direct,
// query, and streaming — keep serving the last published state; Health
// reports the degradation; and reopening from the crash image recovers
// exactly the committed prefix with a clean bill of health.
func TestFaultSessionDegradedReadOnly(t *testing.T) {
	k := faultIndexAfterSeed(t, fsx.OpSync, "wal-", func(db *DB) {
		if err := db.Insert("R", pair("c", "d")); err != nil {
			t.Fatal(err)
		}
	})

	cause := syscall.EIO
	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Err: cause})
	db := openFaultDB(t, ffs)
	seedFaultDB(t, db)
	committed := saveFaultState(t, db)

	err := db.Insert("R", pair("c", "d"))
	if err == nil {
		t.Fatal("insert over a failed fsync reported success")
	}
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("degraded write: errors.Is(err, ErrReadOnly) = false for %v", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("degraded write: got %T, want *DegradedError", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("degraded write does not unwrap to the I/O cause: %v", err)
	}

	h := db.Health()
	if !h.Durable || !h.Degraded || h.Cause == nil {
		t.Fatalf("Health after degradation = %+v", h)
	}

	// Reads keep serving the last published snapshot.
	if rel, ok := db.Relation("R"); !ok || rel.Len() != 1 {
		t.Fatal("degraded database stopped serving direct reads")
	}
	if rel, err := db.Query(`R`); err != nil || rel.Len() != 1 {
		t.Fatalf("degraded database stopped serving queries: %v", err)
	}
	ctx := context.Background()
	rows, err := db.QueryContext(ctx, `R`)
	if err != nil {
		t.Fatalf("degraded database stopped serving streaming queries: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != 1 {
		t.Fatalf("streaming read in degraded mode: %d rows, err %v", n, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Every write path is refused with the same degraded contract.
	if err := db.Assign("S", relation.New(faultPairType())); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Assign in degraded mode: %v", err)
	}
	if err := db.Declare("T", faultPairType()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Declare in degraded mode: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint in degraded mode: %v", err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("S", pair("s1", "s2")); err != nil {
		t.Fatalf("overlay write inside Tx must succeed (nothing published yet): %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Tx.Commit in degraded mode: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback of an uncommitted Tx: %v", err)
	}

	// Close surfaces the degradation too — the caller must not mistake a
	// poisoned shutdown for a clean one.
	if err := db.Close(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Close of a degraded database: %v", err)
	}

	// Recovery: the crash image holds exactly the committed prefix, and the
	// reopened database is healthy and writable.
	crash := mem.CrashImage()
	db2 := openFaultDB(t, crash)
	if got := saveFaultState(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("crash image did not recover exactly the committed prefix")
	}
	if h := db2.Health(); !h.Durable || h.Degraded {
		t.Fatalf("Health after recovery = %+v", h)
	}
	if err := db2.Insert("R", pair("e", "f")); err != nil {
		t.Fatalf("recovered database refuses writes: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("clean close after recovery: %v", err)
	}
}

// TestFaultSessionTxAtomicUnderCrash: a transaction whose commit record is
// torn by a crash mid-write must vanish whole on recovery — both relations it
// wrote or neither, never one.
func TestFaultSessionTxAtomicUnderCrash(t *testing.T) {
	ctx := context.Background()
	commitTx := func(db *DB) error {
		tx, err := db.Begin(ctx)
		if err != nil {
			return err
		}
		if err := tx.Insert("R", pair("r1", "r2")); err != nil {
			return err
		}
		if err := tx.Insert("S", pair("s1", "s2")); err != nil {
			return err
		}
		return tx.Commit()
	}
	k := faultIndexAfterSeed(t, fsx.OpWrite, "wal-", func(db *DB) {
		if err := commitTx(db); err != nil {
			t.Fatal(err)
		}
	})

	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Short: 12, Crash: true}) // torn mid-frame, then power loss
	db := openFaultDB(t, ffs)
	seedFaultDB(t, db)
	if err := commitTx(db); err == nil {
		t.Fatal("commit across a crash reported success")
	}

	// Both the strict crash image and the volatile one (torn frame present,
	// truncated by recovery) must hold an atomic outcome.
	for name, fs := range map[string]fsx.FS{"crash": mem.CrashImage(), "volatile": mem.Image()} {
		db2, err := Open(WithPath(faultDir), withFS(fs))
		if err != nil {
			t.Fatalf("%s image: reopen: %v", name, err)
		}
		relR, _ := db2.Relation("R")
		relS, _ := db2.Relation("S")
		gotR := relR.Len() == 2 // seed tuple + tx tuple
		gotS := relS.Len() == 1
		if gotR != gotS {
			t.Fatalf("%s image: torn commit applied partially: R has tx write %v, S has tx write %v", name, gotR, gotS)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultSessionCheckpointRetry: WithCheckpointRetry absorbs a transient
// clean checkpoint failure (ENOSPC while writing the snapshot); without it
// the same failure surfaces as the I/O error — but cleanly, not as a
// degradation, and the database stays writable.
func TestFaultSessionCheckpointRetry(t *testing.T) {
	k := faultIndexAfterSeed(t, fsx.OpWrite, ".tmp", func(db *DB) {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("with-retry", func(t *testing.T) {
		ffs := fsx.NewFaultFS(fsx.NewMemFS())
		ffs.Inject(fsx.Fault{Index: k, Err: syscall.ENOSPC})
		db := openFaultDB(t, ffs, WithCheckpointRetry(2, time.Millisecond))
		seedFaultDB(t, db)
		gen := db.Health().Generation
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint with retries over transient ENOSPC: %v", err)
		}
		if h := db.Health(); h.Generation != gen+1 || h.TailRecords != 0 || h.Degraded {
			t.Fatalf("Health after retried checkpoint = %+v", h)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("without-retry", func(t *testing.T) {
		ffs := fsx.NewFaultFS(fsx.NewMemFS())
		ffs.Inject(fsx.Fault{Index: k, Err: syscall.ENOSPC})
		db := openFaultDB(t, ffs)
		seedFaultDB(t, db)
		gen := db.Health().Generation
		err := db.Checkpoint()
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("checkpoint into a full disk: got %v, want ENOSPC", err)
		}
		if errors.Is(err, ErrReadOnly) {
			t.Fatal("clean checkpoint failure must not report degradation")
		}
		if h := db.Health(); h.Degraded || h.Generation != gen {
			t.Fatalf("Health after clean checkpoint failure = %+v", h)
		}
		// Still writable: the log was untouched.
		if err := db.Insert("R", pair("c", "d")); err != nil {
			t.Fatalf("insert after clean checkpoint failure: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFaultSessionLoadStoreKeepsStateOnFailure: LoadStore on a durable
// database imports the image into the pages the current variables live in,
// so a replacement that does not commit — a truncated image, or a checkpoint
// that runs out of disk — must leave those variables published, writable and
// recoverable, exactly as before the call.
func TestFaultSessionLoadStoreKeepsStateOnFailure(t *testing.T) {
	donor := mustOpen(t)
	if err := donor.Declare("D", faultPairType()); err != nil {
		t.Fatal(err)
	}
	if err := donor.Insert("D", pair("d", "e")); err != nil {
		t.Fatal(err)
	}
	img := saveFaultState(t, donor)
	load := func(db *DB) error { return db.LoadStore(bytes.NewReader(img)) }
	k := faultIndexAfterSeed(t, fsx.OpWrite, ".tmp", func(db *DB) {
		if err := load(db); err != nil {
			t.Fatal(err)
		}
	})
	for _, tc := range []struct {
		name  string
		fault *fsx.Fault
		load  func(db *DB) error
	}{
		{"truncated-image", nil, func(db *DB) error { return db.LoadStore(bytes.NewReader(img[:len(img)-3])) }},
		{"checkpoint-enospc", &fsx.Fault{Index: k, Err: syscall.ENOSPC}, load},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := fsx.NewMemFS()
			ffs := fsx.NewFaultFS(mem)
			if tc.fault != nil {
				ffs.Inject(*tc.fault)
			}
			db := openFaultDB(t, ffs)
			seedFaultDB(t, db)
			before := saveFaultState(t, db)
			if err := tc.load(db); err == nil {
				t.Fatal("LoadStore reported success")
			}
			if got := saveFaultState(t, db); !bytes.Equal(got, before) {
				t.Fatal("a failed LoadStore changed the published variables")
			}
			if err := db.Insert("R", pair("c", "d")); err != nil {
				t.Fatalf("insert after a failed LoadStore: %v", err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after a failed LoadStore: %v", err)
			}
			want := saveFaultState(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2 := openFaultDB(t, mem)
			defer db2.Close()
			if got := saveFaultState(t, db2); !bytes.Equal(got, want) {
				t.Fatal("reopen after a failed LoadStore lost or changed state")
			}
			if err := load(db2); err != nil {
				t.Fatalf("LoadStore after recovery: %v", err)
			}
			if got := saveFaultState(t, db2); !bytes.Equal(got, img) {
				t.Fatal("LoadStore after recovery did not install the image")
			}
		})
	}
}

// TestFaultSessionCrashRecoveryPrefix: crash at the fsync of a later commit —
// reopening from the crash image yields the committed prefix only, and the
// prefix includes every commit that was acknowledged before the crash.
func TestFaultSessionCrashRecoveryPrefix(t *testing.T) {
	k := faultIndexAfterSeed(t, fsx.OpSync, "wal-", func(db *DB) {
		if err := db.Insert("R", pair("c", "d")); err != nil {
			t.Fatal(err)
		}
	})

	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Crash: true})
	db := openFaultDB(t, ffs)
	seedFaultDB(t, db)
	committed := saveFaultState(t, db)
	if err := db.Insert("R", pair("c", "d")); err == nil {
		t.Fatal("insert across a crash reported success")
	}

	db2, err := Open(WithPath(faultDir), withFS(mem.CrashImage()))
	if err != nil {
		t.Fatalf("reopen from crash image: %v", err)
	}
	if got := saveFaultState(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("crash image did not recover exactly the acknowledged commits")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}
