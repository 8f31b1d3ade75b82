package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fsx"
	"repro/internal/pagestore"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

// The crash-simulation harness, in the style of SQLite's test VFS and
// FoundationDB's simulated disk: record a deterministic mutation workload over
// a fault-free FaultFS to enumerate every filesystem operation it performs,
// then re-run the workload once per operation index k with a fault injected at
// k — an I/O error, a full crash, or a torn write followed by a crash — and
// verify that reopening from the surviving state recovers exactly a committed
// prefix of the workload, never a partial batch and never a lost committed
// record.
//
// The oracle is a shadow store.Database that never touches the filesystem:
// each workload step is mirrored into it only when the real, logged database
// reported success, so the shadow always holds the committed prefix.

const simDir = "db"

// simStep is one unit of the recorded workload.
type simStep struct {
	name    string
	mutates bool // changes logical state (checkpoints do not)
	run     func(db *store.Database) error
}

func intRelType(name string) schema.RelationType {
	return schema.RelationType{
		Name: name,
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "n", Type: schema.ScalarType{Name: "INTEGER", Kind: value.KindInt}},
		}},
		Key: []string{"n"},
	}
}

func ints(ns ...int64) []value.Tuple {
	out := make([]value.Tuple, len(ns))
	for i, n := range ns {
		out[i] = value.NewTuple(value.Int(n))
	}
	return out
}

// simWorkload is the recorded workload: declarations, inserts, a wholesale
// assignment, transaction commits of every batch shape (a two-variable insert
// delta, a single insert delta, an insert delta mixed with a full-value
// assignment), and an explicit checkpoint, sized so the
// CheckpointEvery used by the harness also triggers automatic rotation
// mid-run. Every step is deterministic, so a fault-free pass enumerates the
// exact operation sequence every faulted pass will replay up to its fault.
func simWorkload() []simStep {
	assignRel := func(tuples ...value.Tuple) *relation.Relation {
		return relation.MustFromTuples(pairType("edge"), tuples...)
	}
	return []simStep{
		{"declare-edge", true, func(db *store.Database) error { return db.Declare("Edge", pairType("edge")) }},
		{"insert-edge-1", true, func(db *store.Database) error { return db.Insert("Edge", tup("a", "b"), tup("b", "c")) }},
		{"declare-node", true, func(db *store.Database) error { return db.Declare("Node", intRelType("node")) }},
		{"insert-node-1", true, func(db *store.Database) error { return db.Insert("Node", ints(1, 2, 3)...) }},
		{"tx-commit", true, func(db *store.Database) error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if err := tx.Insert("Edge", tup("c", "d")); err != nil {
				return err
			}
			if err := tx.Insert("Node", ints(4)...); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"checkpoint", false, func(db *store.Database) error { return db.Checkpoint() }},
		{"insert-edge-2", true, func(db *store.Database) error { return db.Insert("Edge", tup("d", "e")) }},
		{"assign-edge", true, func(db *store.Database) error {
			return db.Assign("Edge", assignRel(tup("x", "y"), tup("y", "z")))
		}},
		{"insert-node-2", true, func(db *store.Database) error { return db.Insert("Node", ints(5, 6)...) }},
		{"tx-insert", true, func(db *store.Database) error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if err := tx.Insert("Node", ints(10, 11)...); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"tx-insert-assign", true, func(db *store.Database) error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if err := tx.Insert("Node", ints(12)...); err != nil {
				return err
			}
			if err := tx.Assign("Edge", assignRel(tup("m", "n"))); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"insert-node-3", true, func(db *store.Database) error { return db.Insert("Node", ints(7)...) }},
		{"insert-edge-3", true, func(db *store.Database) error { return db.Insert("Edge", tup("p", "q")) }},
		{"insert-node-4", true, func(db *store.Database) error { return db.Insert("Node", ints(8, 9)...) }},
	}
}

func simOptions(fs fsx.FS) Options {
	return Options{Sync: SyncAlways, CheckpointEvery: 4, FS: fs}
}

// simEnv abstracts the storage engine under the sweep: how a (possibly
// faulted) workload run opens the database and how a fault-free reopen
// recovers from a surviving image. The workload, oracle, and committed-prefix
// assertions are engine-independent.
type simEnv struct {
	name   string
	open   func(fs fsx.FS) (*Log, *store.Database, error)
	reopen func(fs fsx.FS) (*Log, *store.Database, error)
	// pager is the paged engine the latest open or reopen wired in (nil when
	// the workload ran on saveImageEngine).
	pager *pagestore.Engine
}

// saveImageEngine is the memory engine checkpointing the store.Save image.
// Open treats a snapshot as one opaque file whatever its format, so a sweep
// over this engine checks the log's own recovery protocol apart from any
// page engine.
type saveImageEngine struct{ store.Engine }

func (e saveImageEngine) WriteCheckpoint(w io.Writer) error {
	return store.NewDatabaseWith(e.Engine).Save(w)
}

// saveImageSimEnv runs the workload and recovers on saveImageEngine, so every
// snapshot generation is a Save image read back into a memory store.
func saveImageSimEnv() *simEnv {
	open := func(opts Options) (*Log, *store.Database, error) {
		opts.NewStore = func() (*store.Database, error) {
			return store.NewDatabaseWith(saveImageEngine{store.NewMemoryEngine()}), nil
		}
		opts.LoadSnapshot = func(r io.Reader) (*store.Database, error) {
			return store.LoadInto(r, saveImageEngine{store.NewMemoryEngine()})
		}
		return Open(simDir, opts)
	}
	return &simEnv{
		name:   "save-image",
		open:   func(fs fsx.FS) (*Log, *store.Database, error) { return open(simOptions(fs)) },
		reopen: func(fs fsx.FS) (*Log, *store.Database, error) { return open(Options{FS: fs}) },
	}
}

// residentSimEnv wires the page engine as a durable session without
// WithBufferPoolPages does — unbounded residency, so the pool keeps only
// dirty frames — with deliberately tiny pages and pool (2 slots of 128
// bytes), so eviction write-backs, tail pages faulted back in after a
// checkpoint released them, and the checkpoint's flush, heap fsync, and
// manifest write all appear among the swept fault points.
func residentSimEnv() *simEnv {
	return pagedEnv("resident", pagestore.Config{PageSize: 128, PoolPages: 2, ResidentBytes: -1})
}

// pagedSimEnv is residentSimEnv with a bounded residency budget the workload
// never reaches: materializations never drop mid-run, so every Insert grows a
// resident value, and the pool keeps clean frames as a bounded pool does.
func pagedSimEnv() *simEnv {
	return pagedEnv("paged", pagestore.Config{PageSize: 128, PoolPages: 2, ResidentBytes: 1 << 30})
}

// pagedColdSimEnv is pagedSimEnv with a residency of one relation and a
// one-page pool: touching a variable drops the others' decoded values and
// evicts their pages, so an Insert into a variable other than the last one
// touched takes the cold path — its key check reads the variable's pages
// back from the heap file to build the key index, and nothing is decoded.
func pagedColdSimEnv() *simEnv {
	return pagedEnv("paged-cold", pagestore.Config{PageSize: 128, PoolPages: 1, ResidentBytes: 1})
}

// pagedEnv wires the paged engine exactly as the session layer does:
// empty-directory recovery starts over blank pages, snapshot generations
// load through Engine.Load, and committed checkpoints retire superseded
// slots.
func pagedEnv(name string, cfg pagestore.Config) *simEnv {
	env := &simEnv{name: name}
	pagedOpen := func(fs fsx.FS, walOpts Options) (*Log, *store.Database, error) {
		cfg := cfg
		cfg.FS = fs
		pager, err := pagestore.Open(simDir, cfg)
		if err != nil {
			return nil, nil, err
		}
		walOpts.NewStore = func() (*store.Database, error) {
			return store.NewDatabaseWith(pager), nil
		}
		walOpts.LoadSnapshot = pager.Load
		walOpts.OnCheckpoint = pager.CheckpointCommitted
		l, db, err := Open(simDir, walOpts)
		if err != nil {
			_ = pager.Close()
			return nil, nil, err
		}
		env.pager = pager
		return l, db, nil
	}
	env.open = func(fs fsx.FS) (*Log, *store.Database, error) {
		return pagedOpen(fs, simOptions(fs))
	}
	env.reopen = func(fs fsx.FS) (*Log, *store.Database, error) {
		return pagedOpen(fs, Options{FS: fs})
	}
	return env
}

// runSim opens a log over fs and drives the workload, mirroring each
// successful mutation into a shadow store that never touches the filesystem.
// It returns the shadow (always exactly the committed prefix), the index of
// the first mutation step that failed (-1 if none), and the log and database
// (nil if Open itself failed).
func runSim(t *testing.T, env *simEnv, fs fsx.FS, steps []simStep) (shadow *store.Database, firstFailed int, l *Log, db *store.Database, openErr error) {
	t.Helper()
	shadow = store.NewDatabase()
	firstFailed = -1
	l, db, openErr = env.open(fs)
	if openErr != nil {
		return shadow, firstFailed, nil, nil, openErr
	}
	db.SetLogger(l)
	for i, s := range steps {
		if err := s.run(db); err != nil {
			if s.mutates && firstFailed == -1 {
				firstFailed = i
			}
			continue
		}
		if s.mutates {
			if err := s.run(shadow); err != nil {
				t.Fatalf("shadow step %s failed: %v", s.name, err)
			}
		}
	}
	return shadow, firstFailed, l, db, nil
}

// envReopen recovers from a surviving filesystem image with the given
// engine and no faults scripted.
func envReopen(t *testing.T, env *simEnv, fs fsx.FS) (*Log, *store.Database) {
	t.Helper()
	l, db, err := env.reopen(fs)
	if err != nil {
		t.Fatalf("reopen from surviving image (%s engine): %v", env.name, err)
	}
	db.SetLogger(l)
	return l, db
}

// verifyUsable appends a probe mutation to a recovered database and checks it
// survives another reopen: recovery must leave the log appendable.
func verifyUsable(t *testing.T, env *simEnv, fs fsx.FS, l *Log, db *store.Database) {
	t.Helper()
	if err := db.Declare("Probe", pairType("probe")); err != nil {
		t.Fatalf("recovered database refuses declarations: %v", err)
	}
	if err := db.Insert("Probe", tup("p", "q")); err != nil {
		t.Fatalf("recovered database refuses inserts: %v", err)
	}
	want := saveBytes(t, db)
	if err := l.Close(); err != nil {
		t.Fatalf("closing recovered database: %v", err)
	}
	l2, db2 := envReopen(t, env, fs)
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, want) {
		t.Fatal("probe mutation after recovery did not survive reopen")
	}
}

// matchesAny reports whether got equals one of the candidate fingerprints.
func matchesAny(got []byte, candidates [][]byte) bool {
	for _, c := range candidates {
		if bytes.Equal(got, c) {
			return true
		}
	}
	return false
}

// TestCrashSimEveryFaultPoint is the every-fault-point sweep. A fault-free
// recording pass enumerates the workload's complete filesystem operation
// sequence; then, for every operation index k, the workload is re-run three
// ways — the operation fails with an I/O error, the machine crashes at it, or
// (for writes) the write is torn short and then the machine crashes — and
// recovery from the surviving state must yield exactly a committed prefix.
// Here the snapshots are Save images over the memory engine, so the sweep
// checks the log's generation protocol alone; the sweeps below add the page
// engine's own fault points.
func TestCrashSimEveryFaultPoint(t *testing.T) {
	sweepEveryFaultPoint(t, saveImageSimEnv())
}

// TestCrashSimEveryFaultPointResident runs the same sweep over the engine of
// every durable session without WithBufferPoolPages. The recorded operation
// sequence includes heap page writes (eviction write-backs and checkpoint
// flushes), heap reads of tail pages a checkpoint released from the pool,
// the heap fsync, and the incremental page-manifest write inside each
// checkpoint — every one of them is failed, crashed, and torn in turn, and
// recovery must still yield exactly a committed prefix.
func TestCrashSimEveryFaultPointResident(t *testing.T) {
	sweepEveryFaultPoint(t, residentSimEnv())
}

// TestCrashSimEveryFaultPointPaged runs the sweep over the bounded paged
// engine whose pool keeps clean frames, so tail pages are appended to in
// place after a checkpoint.
func TestCrashSimEveryFaultPointPaged(t *testing.T) {
	sweepEveryFaultPoint(t, pagedSimEnv())
}

// TestCrashSimEveryFaultPointPagedCold sweeps the paged engine with a
// residency of one relation, so the workload's Inserts alternate between the
// resident path and the cold path: the key index built by reading the
// variable's pages back, the check against it, the append to the tail page.
// The recording pass must show a heap read inside an Insert that built a key
// index — a fault point of the cold check itself — and every fault must still
// recover to exactly a committed prefix.
func TestCrashSimEveryFaultPointPagedCold(t *testing.T) {
	env := pagedColdSimEnv()
	fs := fsx.NewFaultFS(fsx.NewMemFS())
	l, db, err := env.open(fs)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLogger(l)
	coldRead := false
	for _, s := range simWorkload() {
		from, builds := fs.OpCount(), env.pager.Stats().KeyIndexBuilds
		if err := s.run(db); err != nil {
			t.Fatalf("fault-free step %s: %v", s.name, err)
		}
		if env.pager.Stats().KeyIndexBuilds > builds {
			for _, op := range fs.Ops()[from:] {
				coldRead = coldRead || (op.Kind == fsx.OpRead && strings.Contains(op.Path, "pages.heap"))
			}
		}
	}
	if st := env.pager.Stats(); st.KeyIndexBuilds == 0 || !coldRead {
		t.Fatalf("workload never read pages back to check a cold insert: %+v", st)
	}
	_ = l.Close()
	sweepEveryFaultPoint(t, env)
}

func sweepEveryFaultPoint(t *testing.T, env *simEnv) {
	steps := simWorkload()

	// Recording pass: fault-free, enumerates the fault points.
	mem := fsx.NewMemFS()
	rec := fsx.NewFaultFS(mem)
	shadow, firstFailed, l, db, err := runSim(t, env, rec, steps)
	if err != nil {
		t.Fatalf("fault-free open: %v", err)
	}
	if firstFailed != -1 {
		t.Fatalf("fault-free run failed at step %q", steps[firstFailed].name)
	}
	if got, want := saveBytes(t, db), saveBytes(t, shadow); !bytes.Equal(got, want) {
		t.Fatal("shadow diverged from the real database on a fault-free run")
	}
	if g := l.Generation(); g < 3 {
		t.Fatalf("workload did not exercise rotation: generation %d", g)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	baselineOps := rec.Ops()
	total := rec.OpCount()
	if total < 30 {
		t.Fatalf("suspiciously few fault points recorded: %d", total)
	}
	if env.pager != nil {
		// The paged sweep must actually cover the new engine's fault points:
		// heap page writes and the heap fsync that orders them before the
		// checkpoint manifest. opIndex fails the test if either is absent.
		opIndex(t, baselineOps, 0, fsx.OpWrite, "pages.heap")
		opIndex(t, baselineOps, 0, fsx.OpSync, "pages.heap")
	}
	t.Logf("sweeping %d fault points (%s engine)", total, env.name)

	t.Run("error", func(t *testing.T) {
		for k := 0; k < total; k++ {
			t.Run(fmt.Sprintf("%03d-%s", k, baselineOps[k]), func(t *testing.T) {
				simulateError(t, env, steps, k)
			})
		}
	})
	t.Run("crash", func(t *testing.T) {
		for k := 0; k < total; k++ {
			t.Run(fmt.Sprintf("%03d-%s", k, baselineOps[k]), func(t *testing.T) {
				simulateCrash(t, env, steps, fsx.Fault{Index: k, Crash: true})
			})
		}
	})
	t.Run("short-write-crash", func(t *testing.T) {
		for k := 0; k < total; k++ {
			if baselineOps[k].Kind != fsx.OpWrite {
				continue
			}
			for _, short := range []int{3, 11} { // inside the frame header, inside the payload
				t.Run(fmt.Sprintf("%03d-short%d-%s", k, short, baselineOps[k]), func(t *testing.T) {
					simulateCrash(t, env, steps, fsx.Fault{Index: k, Short: short, Crash: true})
				})
			}
		}
	})
}

// simulateError injects a plain I/O error at operation k: the process stays
// alive, so the in-memory state must stay exactly the committed prefix (a
// failed commit is never published), a poisoned log must refuse every later
// append, and a graceful-exit reopen must recover the committed prefix —
// possibly extended by the single faulted record, if its frame fully reached
// the page cache before the error (an fsync failure), but never a partial
// batch and never more than that one record.
func simulateError(t *testing.T, env *simEnv, steps []simStep, k int) {
	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k})
	shadow, firstFailed, l, db, openErr := runSim(t, env, ffs, steps)
	if l != nil {
		// Failed commits must not be published in memory either. On the cold
		// engine alone the injected fault may land on a page read of this
		// very check (the recording pass's Save faulted cold variables in);
		// page reads are retryable, and the single-shot fault is spent.
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			if env.name != "paged-cold" || !errors.Is(err, fsx.ErrInjected) {
				t.Fatalf("Save after the fault: %v", err)
			}
			buf.Reset()
			buf.Write(saveBytes(t, db))
		}
		if got, want := buf.Bytes(), saveBytes(t, shadow); !bytes.Equal(got, want) {
			t.Fatal("in-memory state diverged from the committed prefix")
		}
		if l.Err() != nil {
			// Poisoned: a direct append must refuse with PoisonedError.
			err := l.Append([]store.Mutation{{Op: store.OpInsert, Name: "Edge", Tuples: []value.Tuple{tup("z", "z")}}}, nil)
			var pe *PoisonedError
			if !errors.As(err, &pe) {
				t.Fatalf("append on poisoned log: got %v, want *PoisonedError", err)
			}
		}
		_ = l.Close() // poisoned close reports the poison; either way the image below is what counts
	} else if openErr == nil {
		t.Fatal("runSim returned no log and no open error")
	}

	expected := [][]byte{saveBytes(t, shadow)}
	if firstFailed >= 0 {
		// The one faulted record may have fully reached the page cache before
		// its fsync failed; a graceful-exit reopen then legitimately replays
		// it. Atomicity still holds: the whole batch or none of it.
		if err := steps[firstFailed].run(shadow); err != nil {
			t.Fatalf("applying faulted step %q to shadow: %v", steps[firstFailed].name, err)
		}
		expected = append(expected, saveBytes(t, shadow))
	}
	img := mem.Image()
	l2, db2 := envReopen(t, env, img)
	if got := saveBytes(t, db2); !matchesAny(got, expected) {
		t.Fatalf("recovered state is neither the committed prefix nor prefix+faulted-record")
	}
	verifyUsable(t, env, img, l2, db2)
}

// simulateCrash injects a crash (optionally preceded by a torn write) at
// operation k. With SyncAlways, every acknowledged commit was fsynced to a
// dir-synced file, so recovery from the crash image — what stable storage
// holds, everything unsynced lost — must be *exactly* the committed prefix.
// Recovery from the volatile image (the page cache, as after a graceful exit)
// may additionally hold the single in-flight record.
func simulateCrash(t *testing.T, env *simEnv, steps []simStep, fault fsx.Fault) {
	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fault)
	shadow, firstFailed, l, _, _ := runSim(t, env, ffs, steps)
	if l != nil {
		_ = l.Close() // fails after the crash; the images below are what count
	}

	committed := saveBytes(t, shadow)
	crash := mem.CrashImage()
	l2, db2 := envReopen(t, env, crash)
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatalf("crash image did not recover exactly the committed prefix")
	}
	verifyUsable(t, env, crash, l2, db2)

	expected := [][]byte{committed}
	if firstFailed >= 0 {
		if err := steps[firstFailed].run(shadow); err != nil {
			t.Fatalf("applying faulted step %q to shadow: %v", steps[firstFailed].name, err)
		}
		expected = append(expected, saveBytes(t, shadow))
	}
	img := mem.Image()
	l3, db3 := envReopen(t, env, img)
	defer l3.Close()
	if got := saveBytes(t, db3); !matchesAny(got, expected) {
		t.Fatalf("volatile image recovered neither the committed prefix nor prefix+in-flight record")
	}
}

// opIndex returns the index of the first operation at or after from whose
// kind matches and whose path contains substr.
func opIndex(t *testing.T, ops []fsx.Op, from int, kind fsx.OpKind, substr string) int {
	t.Helper()
	for i := from; i < len(ops); i++ {
		if ops[i].Kind == kind && strings.Contains(ops[i].Path, substr) {
			return i
		}
	}
	t.Fatalf("no %v op matching %q at or after index %d", kind, substr, from)
	return -1
}

// seedSmall opens a log over fs and commits a declaration and an insert; it
// is the deterministic setup shared by a pilot run (which locates a fault
// index) and the faulted run.
func seedSmall(t *testing.T, fs fsx.FS) (*Log, *store.Database) {
	t.Helper()
	opts, _ := resident(t, simDir, Options{Sync: SyncAlways, CheckpointEvery: -1, FS: fs})
	l, db, err := Open(simDir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.SetLogger(l)
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	return l, db
}

// TestFaultENOSPCMidSnapshot: running out of disk while writing the snapshot
// temp file is a clean checkpoint failure — the previous generation is
// untouched, the error is the ENOSPC (not a poisoned-log error), the log
// still accepts appends, and both a graceful and a crash reopen recover the
// full committed state.
func TestFaultENOSPCMidSnapshot(t *testing.T) {
	// Pilot: locate the first write to the snapshot temp file.
	pmem := fsx.NewMemFS()
	pilot := fsx.NewFaultFS(pmem)
	pl, pdb := seedSmall(t, pilot)
	before := pilot.OpCount()
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k := opIndex(t, pilot.Ops(), before, fsx.OpWrite, ".tmp")
	_ = pl.Close()

	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Err: syscall.ENOSPC})
	l, db := seedSmall(t, ffs)
	gen := l.Generation()

	err := db.Checkpoint()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint into a full disk: got %v, want ENOSPC", err)
	}
	if l.Err() != nil {
		t.Fatalf("clean checkpoint failure poisoned the log: %v", l.Err())
	}
	if g := l.Generation(); g != gen {
		t.Fatalf("failed checkpoint advanced the generation to %d", g)
	}
	// The log is still appendable after the failed checkpoint.
	if err := db.Insert("R", tup("c", "d")); err != nil {
		t.Fatalf("append after clean checkpoint failure: %v", err)
	}
	// And the checkpoint succeeds once retried with space available (the
	// fault was single-shot).
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if n := l.TailRecords(); n != 0 {
		t.Fatalf("retried checkpoint left %d tail records", n)
	}
	want2 := saveBytes(t, db)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Both the crash image and the volatile image recover the full state;
	// the aborted snapshot attempt left nothing that recovery trips over.
	for name, fs := range map[string]fsx.FS{"crash": mem.CrashImage(), "volatile": mem.Image()} {
		l2, db2 := openAttached(t, simDir, Options{FS: fs})
		if got := saveBytes(t, db2); !bytes.Equal(got, want2) {
			t.Fatalf("%s image: recovered state differs after ENOSPC checkpoint", name)
		}
		l2.Close()
	}
}

// TestFaultFsyncPoisonsLog: a failed per-commit fsync poisons the log — the
// commit reports failure and is not published, there is no fsync retry, every
// later operation fails with PoisonedError, Err exposes the cause, and Close
// (first and repeated) reports the poison instead of success. The crash image
// recovers the pre-fault state exactly.
func TestFaultFsyncPoisonsLog(t *testing.T) {
	// Pilot: locate the fsync of the insert after the seed.
	pmem := fsx.NewMemFS()
	pilot := fsx.NewFaultFS(pmem)
	pl, pdb := seedSmall(t, pilot)
	before := pilot.OpCount()
	if err := pdb.Insert("R", tup("c", "d")); err != nil {
		t.Fatal(err)
	}
	k := opIndex(t, pilot.Ops(), before, fsx.OpSync, "wal-")
	_ = pl.Close()

	cause := errors.New("simulated fsync failure")
	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Err: cause})
	l, db := seedSmall(t, ffs)
	committed := saveBytes(t, db)

	if err := db.Insert("R", tup("c", "d")); !errors.Is(err, cause) {
		t.Fatalf("insert over failed fsync: got %v, want the fsync error", err)
	}
	if rel, _ := db.Get("R"); rel.Len() != 1 {
		t.Fatal("failed commit was published in memory")
	}
	if !errors.Is(l.Err(), cause) {
		t.Fatalf("Err() = %v, want the poisoning fsync failure", l.Err())
	}
	var pe *PoisonedError
	if err := db.Insert("R", tup("e", "f")); !errors.As(err, &pe) {
		t.Fatalf("append on poisoned log: got %v, want *PoisonedError", err)
	}
	if err := db.Checkpoint(); !errors.As(err, &pe) {
		t.Fatalf("checkpoint on poisoned log: got %v, want *PoisonedError", err)
	}
	if err := l.Close(); !errors.As(err, &pe) {
		t.Fatalf("close of poisoned log: got %v, want *PoisonedError", err)
	}
	if err := l.Close(); !errors.As(err, &pe) {
		t.Fatalf("repeated close of poisoned log: got %v, want *PoisonedError", err)
	}
	if !errors.Is(l.Err(), cause) {
		t.Fatal("Err() lost the poison after Close")
	}

	crash := mem.CrashImage()
	l2, db2 := openAttached(t, simDir, Options{FS: crash})
	defer l2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
		t.Fatal("crash image after poisoned fsync is not the committed prefix")
	}
}

// TestFaultCheckpointRenameDirSyncPoisons: a checkpoint whose snapshot rename
// cannot be made durable (the directory fsync after it fails) is past the
// commit point — it poisons the log and leaves both generations on disk, and
// recovery from either image lands on the committed state.
func TestFaultCheckpointRenameDirSyncPoisons(t *testing.T) {
	// Pilot: locate the directory fsync inside the checkpoint's rotation.
	pmem := fsx.NewMemFS()
	pilot := fsx.NewFaultFS(pmem)
	pl, pdb := seedSmall(t, pilot)
	before := pilot.OpCount()
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k := opIndex(t, pilot.Ops(), before, fsx.OpSyncDir, simDir)
	_ = pl.Close()

	cause := errors.New("simulated dir-fsync failure")
	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Err: cause})
	l, db := seedSmall(t, ffs)
	committed := saveBytes(t, db)
	gen := l.Generation()

	if err := db.Checkpoint(); !errors.Is(err, cause) {
		t.Fatalf("checkpoint with failed dir fsync: got %v, want the fsync error", err)
	}
	if !errors.Is(l.Err(), cause) {
		t.Fatal("dir-fsync failure past the rename did not poison the log")
	}
	var pe *PoisonedError
	if err := db.Insert("R", tup("c", "d")); !errors.As(err, &pe) {
		t.Fatalf("append after poisoned checkpoint: got %v, want *PoisonedError", err)
	}
	// Both generations stay on disk: it is unknowable which one a crash
	// would surface, so neither may be deleted.
	if !mem.Exists(snapPath(simDir, gen+1)) || !mem.Exists(logPath(simDir, gen+1)) {
		t.Fatal("new generation missing after poisoned checkpoint")
	}
	if !mem.Exists(logPath(simDir, gen)) {
		t.Fatal("old generation deleted despite un-durable rename")
	}
	_ = l.Close()

	for name, fs := range map[string]fsx.FS{"crash": mem.CrashImage(), "volatile": mem.Image()} {
		l2, db2 := openAttached(t, simDir, Options{FS: fs})
		if got := saveBytes(t, db2); !bytes.Equal(got, committed) {
			t.Fatalf("%s image after poisoned checkpoint is not the committed state", name)
		}
		l2.Close()
	}
}

// TestFaultOpenDirSyncPropagates: the directory fsync that makes a freshly
// created log file durable is load-bearing — a failure there must fail Open,
// not be swallowed (SyncAlways would otherwise acknowledge commits into a
// file whose directory entry a crash can lose).
func TestFaultOpenDirSyncPropagates(t *testing.T) {
	open := func(fs fsx.FS) (*Log, error) {
		opts, _ := resident(t, simDir, Options{Sync: SyncAlways, FS: fs})
		l, _, err := Open(simDir, opts)
		return l, err
	}
	// Pilot: locate the database-directory fsync inside Open that follows
	// the creation of the log file (the one before it, on the parent
	// directory, is best-effort, as is the page engine's before that).
	pmem := fsx.NewMemFS()
	pilot := fsx.NewFaultFS(pmem)
	pl, err := open(pilot)
	if err != nil {
		t.Fatal(err)
	}
	k := opIndex(t, pilot.Ops(), opIndex(t, pilot.Ops(), 0, fsx.OpOpen, "wal-"), fsx.OpSyncDir, simDir)
	_ = pl.Close()

	cause := errors.New("simulated dir-fsync failure")
	ffs := fsx.NewFaultFS(fsx.NewMemFS())
	ffs.Inject(fsx.Fault{Index: k, Err: cause})
	if _, err := open(ffs); !errors.Is(err, cause) {
		t.Fatalf("Open with failed directory fsync: got %v, want the fsync error", err)
	}

	// The parent-directory fsync, by contrast, is best-effort: not every
	// filesystem supports it, and it only covers the one-time creation of
	// the database directory itself.
	pffs := fsx.NewFaultFS(fsx.NewMemFS())
	pffs.Inject(fsx.Fault{Index: k - 1, Err: cause})
	l2, err := open(pffs)
	if err != nil {
		t.Fatalf("Open with failed parent-dir fsync must succeed, got %v", err)
	}
	l2.Close()
}

// TestFaultCheckpointRetryRecovers: Options.CheckpointRetries re-attempts
// cleanly failed checkpoints, so a transient failure while writing the
// snapshot is absorbed; a poisoned log is never retried.
func TestFaultCheckpointRetryRecovers(t *testing.T) {
	pmem := fsx.NewMemFS()
	pilot := fsx.NewFaultFS(pmem)
	pl, pdb := seedSmall(t, pilot)
	before := pilot.OpCount()
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k := opIndex(t, pilot.Ops(), before, fsx.OpWrite, ".tmp")
	_ = pl.Close()

	mem := fsx.NewMemFS()
	ffs := fsx.NewFaultFS(mem)
	ffs.Inject(fsx.Fault{Index: k, Err: syscall.ENOSPC})
	opts, _ := resident(t, simDir, Options{Sync: SyncAlways, CheckpointEvery: -1, CheckpointRetries: 2, FS: ffs})
	l, db, err := Open(simDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLogger(l)
	if err := db.Declare("R", pairType("r")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", tup("a", "b")); err != nil {
		t.Fatal(err)
	}
	gen := l.Generation()
	// The transient ENOSPC is absorbed by the retry.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with retries over a transient failure: %v", err)
	}
	if g := l.Generation(); g != gen+1 {
		t.Fatalf("retried checkpoint did not advance the generation: %d", g)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
