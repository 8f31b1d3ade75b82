// Package wal is the durability subsystem of the DBPL store: an append-only
// write-ahead log of committed mutations, snapshot checkpoints that compact
// the log, and crash recovery that replays snapshot-plus-tail on open.
//
// Only base-relation state is logged — module DDL (variable declarations),
// inserts, assignments, and transaction commits, each commit as one atomic
// batch record. Derived constructor results are never logged: they recompute
// from the base relations on recovery (the classic deductive-database split
// between a durable extensional store and a recomputable intensional one).
// A record costs what its commit changed: inserts — Database.Insert, and every
// variable a committed transaction only inserted into while no other writer
// overtook its Begin snapshot — carry just the inserted tuples. Assignments
// carry the variable's full value, because their semantics is wholesale
// last-writer-wins replacement; so does a transaction's write whose base was
// overtaken before Commit, since the log position then no longer holds the
// value its tuples were inserted into.
//
// All file I/O goes through an fsx.FS (the real filesystem by default), so
// tests drive the same code over a fault-injecting in-memory filesystem and
// exercise every failure path deterministically.
//
// # Failure model
//
// A failed append or fsync *poisons* the log: the error is sticky (Err
// reports it), every later Append or Checkpoint fails with a
// *PoisonedError, and Close reports the poison instead of success. There is
// deliberately no fsync retry — after a failed fsync the kernel may have
// dropped the dirty pages while marking them clean, so a retried fsync that
// "succeeds" can mask lost data (the PostgreSQL fsyncgate lesson). The caller
// degrades to read-only and recovers by reopening, which truncates the torn
// tail.
//
// Checkpoint failures before the snapshot rename are clean aborts: the old
// generation is untouched and the log stays appendable, so they are safe to
// retry (Options.CheckpointRetries bounds automatic retries). A failure to
// make the rename durable (the directory fsync after it) poisons the log: at
// that point it is unknowable which generation a crash would surface, and
// proceeding would delete the old one.
//
// # On-disk layout
//
// A database directory holds at most two generations of a snapshot/log pair:
//
//	snap-0000000007.dbpl   the store engine's checkpoint of the state at 7
//	wal-0000000007.log     mutations committed since that checkpoint
//
// For every durable database the snapshot is a page manifest of
// internal/pagestore, whose pages live in the directory's pages.heap
// (Options.LoadSnapshot reads it). Generation 1 has no snapshot (the
// initial state is empty). A checkpoint writes snap-(g+1) to a temporary
// file, fsyncs, atomically renames it into place, starts an empty
// wal-(g+1), and only then removes generation g — so a crash at any point
// leaves at least one complete generation on disk.
//
// # Record format
//
// Each log record is one batch of mutations, framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// Recovery replays records in order and stops at the first torn or corrupt
// record (short frame or CRC mismatch), truncating the file there: exactly
// the committed prefix survives, and a half-written transaction batch is
// discarded whole. A read that fails with a real I/O error (not a short
// read at end-of-file) fails recovery instead: truncating there would
// silently discard committed records that are still on disk.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/value"
)

// SyncPolicy controls when the log fsyncs appended records.
type SyncPolicy int

// Sync policies.
const (
	// SyncAlways fsyncs after every appended batch (the default): a commit
	// that returns survives a machine crash.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the operating system: commits survive a
	// process crash (the write has reached the kernel) but a machine crash
	// may lose the most recent ones. Roughly an order of magnitude faster.
	SyncNever
)

func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// DefaultCheckpointEvery is the number of log records after which Append
// cuts a snapshot checkpoint when Options.CheckpointEvery is zero.
const DefaultCheckpointEvery = 1024

// Options configures Open.
type Options struct {
	// Sync is the fsync policy for appended records.
	Sync SyncPolicy
	// CheckpointEvery is the log-record count that triggers an automatic
	// snapshot checkpoint; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery int
	// CheckpointRetries is the number of times a cleanly failed checkpoint
	// (old generation intact, rename not committed) is retried before the
	// error is returned; 0 means no retries. Retries back off starting at
	// CheckpointBackoff, doubling each attempt.
	CheckpointRetries int
	// CheckpointBackoff is the initial delay between checkpoint retries.
	// The backoff sleeps with the log lock held: appends wait, reads proceed.
	CheckpointBackoff time.Duration
	// FS is the filesystem the log runs over; nil means the real one
	// (fsx.OsFS). Tests inject fault-scripted filesystems here.
	FS fsx.FS
	// NewStore constructs the store recovery starts from when the directory
	// holds no snapshot: an empty store over the storage engine whose
	// checkpoints the log will rotate in. Required.
	NewStore func() (*store.Database, error)
	// LoadSnapshot loads the newest snapshot checkpoint into a store over
	// that engine (pagestore.Engine.Load). Required.
	LoadSnapshot func(r io.Reader) (*store.Database, error)
	// OnCheckpoint, when set, runs after a checkpoint commits — the snapshot
	// rename is durable and the superseded generation is gone — with the new
	// generation number. The paged engine uses it to retire superseded page
	// slots: before this fires, a crash may still recover from the previous
	// manifest, so the slots it references must not be reused. It is called
	// with the log's lock (and the store's lock) held and must not call back
	// into either.
	OnCheckpoint func(gen uint64)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// PoisonedError reports an operation refused because an earlier unrecoverable
// I/O failure poisoned the log. The log's sticky error (also available via
// Err) is the cause.
type PoisonedError struct {
	Cause error
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("wal: log poisoned by unrecoverable I/O failure: %v", e.Cause)
}

// Unwrap exposes the poisoning failure.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// RecoveryError reports a log record that passed its checksum but could not
// be decoded or applied: the log and the snapshot have diverged, which is
// corruption recovery must not paper over.
type RecoveryError struct {
	Path   string // log file
	Record int    // zero-based record index
	Err    error
}

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("wal: %s: record %d: %v", e.Path, e.Record, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *RecoveryError) Unwrap() error { return e.Err }

// CorruptSnapshotError reports that the newest snapshot — the recovery base
// — does not load; recovery refuses to silently restart empty or roll back
// to an older generation.
type CorruptSnapshotError struct {
	Path string // the newest snapshot
	Err  error
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("wal: snapshot %s does not load: %v", e.Path, e.Err)
}

// Unwrap exposes the underlying load error.
func (e *CorruptSnapshotError) Unwrap() error { return e.Err }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxRecordLen bounds a single record frame; anything larger is treated
	// as a torn/corrupt tail rather than an allocation request.
	maxRecordLen = 1 << 30
)

// Log is an open write-ahead log bound to a database directory. It
// implements store.Logger, so attaching it to a store.Database makes every
// mutation durable. All methods are safe for concurrent use.
type Log struct {
	dir     string
	fs      fsx.FS
	sync    SyncPolicy
	every   int
	retries int
	backoff time.Duration

	mu     sync.Mutex
	f      fsx.File
	gen    uint64
	n      int   // records in the current log tail
	off    int64 // current end offset of the log file
	closed bool
	// onCheckpoint is Options.OnCheckpoint (see there).
	onCheckpoint func(gen uint64)
	// err is the sticky poison: the first unrecoverable I/O failure. Once
	// set, appends, syncs, and checkpoints are refused and Close reports it.
	err error
	// rotateAt is the tail-record count at which the next automatic
	// checkpoint triggers; pushed back by a checkpoint interval after a
	// cleanly failed automatic rotation so availability does not turn into
	// a retry storm on every append.
	rotateAt int
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%010d.dbpl", gen))
}

func logPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%010d.log", gen))
}

// Open recovers the database persisted in dir (creating the directory if
// needed) and returns the log positioned for appending together with the
// recovered store. The store is returned without a logger attached; the
// caller attaches the log with store.Database.SetLogger once it is done
// inspecting the recovered state.
func Open(dir string, opts Options) (*Log, *store.Database, error) {
	if opts.NewStore == nil || opts.LoadSnapshot == nil {
		return nil, nil, errors.New("wal: Options.NewStore and Options.LoadSnapshot are required")
	}
	fs := opts.FS
	if fs == nil {
		fs = fsx.OsFS{}
	}
	if err := fs.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, err
	}
	snaps, logs, err := scan(fs, dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{
		dir:          dir,
		fs:           fs,
		sync:         opts.Sync,
		every:        opts.CheckpointEvery,
		retries:      opts.CheckpointRetries,
		backoff:      opts.CheckpointBackoff,
		onCheckpoint: opts.OnCheckpoint,
	}
	if l.every == 0 {
		l.every = DefaultCheckpointEvery
	}
	l.rotateAt = l.every

	// The newest snapshot is the recovery base. If it does not load —
	// external damage or a transient I/O error; checkpoints rename
	// atomically, so a half-written snapshot never carries the final name —
	// Open fails rather than silently rolling the database back to an older
	// generation (which the cleanup below would then make permanent).
	var db *store.Database
	var gen uint64
	if len(snaps) > 0 {
		gen = snaps[len(snaps)-1]
		d, err := loadSnapshot(fs, snapPath(dir, gen), opts.LoadSnapshot)
		if err != nil {
			return nil, nil, &CorruptSnapshotError{Path: snapPath(dir, gen), Err: err}
		}
		db = d
	} else {
		// No snapshot at all: the initial generation. An existing wal-g
		// belongs to it (no checkpoint ever completed); otherwise start at 1.
		if db, err = opts.NewStore(); err != nil {
			return nil, nil, err
		}
		gen = 1
		if len(logs) > 0 {
			gen = logs[0]
		}
	}
	l.gen = gen

	f, err := fs.OpenFile(logPath(dir, gen), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, nil, err
	}
	// Best-effort only for the parent: it covers just the creation of the
	// database directory itself, which happens once before any commit is
	// acknowledged, and fsync on an arbitrary parent directory is not
	// supported everywhere.
	_ = fs.SyncDir(filepath.Dir(dir))
	// The directory entry of a freshly created log file must be durable
	// before SyncAlways acknowledges commits into it: fsync of file data is
	// worthless if a machine crash loses the dirent. This one propagates.
	if err := fs.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: making %s durable: %w", dir, err)
	}
	n, off, err := replay(f, db)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// Truncate a torn tail so future appends extend the committed prefix.
	if err := f.Truncate(off); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	l.f, l.n, l.off = f, n, off

	// Stale generations left by a crash between checkpoint and cleanup, and
	// snapshot temp files left by a checkpoint interrupted before its rename.
	// All best-effort: leftovers are harmless and re-attempted next Open.
	for _, g := range snaps {
		if g != gen {
			_ = fs.Remove(snapPath(dir, g))
		}
	}
	for _, g := range logs {
		if g != gen {
			_ = fs.Remove(logPath(dir, g))
		}
	}
	if names, err := fs.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".dbpl.tmp") {
				_ = fs.Remove(filepath.Join(dir, name))
			}
		}
	}
	return l, db, nil
}

// scan lists the snapshot and log generations present in dir, sorted
// ascending.
func scan(fs fsx.FS, dir string) (snaps, logs []uint64, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		var g uint64
		if _, err := fmt.Sscanf(name, "snap-%d.dbpl", &g); err == nil && name == filepath.Base(snapPath(dir, g)) {
			snaps = append(snaps, g)
			continue
		}
		if _, err := fmt.Sscanf(name, "wal-%d.log", &g); err == nil && name == filepath.Base(logPath(dir, g)) {
			logs = append(logs, g)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	return snaps, logs, nil
}

func loadSnapshot(fs fsx.FS, path string, load func(io.Reader) (*store.Database, error)) (*store.Database, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	db, err := load(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return db, nil
}

// replay applies the valid record prefix of the log file to db, returning
// the record count and the offset of the first torn/corrupt byte (the commit
// horizon). A short read at end-of-file is the torn-tail horizon; a read
// that fails with a real I/O error fails replay — truncating there would
// discard committed records that are still on disk. Records that pass their
// checksum but fail to decode or apply return a *RecoveryError.
func replay(f fsx.File, db *store.Database) (records int, goodOff int64, err error) {
	var off int64
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, off, nil // clean EOF or torn header
			}
			return records, off, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordLen {
			// A real batch payload is never empty (it starts with its
			// mutation count), but a zero-filled tail — a crash that
			// persisted the file-size extension before the data — parses as
			// length=0 with a matching CRC (crc32c of nothing is 0). Both
			// cases are the torn-tail horizon, not corruption.
			return records, off, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, off, nil // torn payload
			}
			return records, off, fmt.Errorf("wal: reading %s: %w", f.Name(), err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return records, off, nil // corrupt payload
		}
		batch, err := DecodeBatch(payload)
		if err != nil {
			return records, off, &RecoveryError{Path: f.Name(), Record: records, Err: err}
		}
		if err := Apply(db, batch); err != nil {
			return records, off, &RecoveryError{Path: f.Name(), Record: records, Err: err}
		}
		records++
		off += frameHeaderLen + int64(length)
	}
}

// Apply replays one decoded batch against db. Recovery uses it record by
// record (the recovering database has no logger attached, so nothing is
// re-logged), and replicas use it to apply batches tailed off a primary.
//
// A multi-mutation batch — a committed transaction's write set, any mix of
// insert deltas and full-value assignments — is replayed through one overlay
// transaction, so concurrent snapshot readers (replica queries) observe either
// all of the batch or none of it, exactly as readers on the primary did. The
// replaying transaction classifies its writes as the original did: an insert
// delta commits as growth again (observers maintain instead of resetting, the
// paged engine appends pages instead of rewriting the heap).
func Apply(db *store.Database, batch []store.Mutation) error {
	if len(batch) == 1 {
		return applyOne(db, batch[0])
	}
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if !tx.Done() {
			tx.Rollback()
		}
	}()
	for _, m := range batch {
		var err error
		switch m.Op {
		case store.OpInsert:
			err = tx.Insert(m.Name, m.Tuples...)
		case store.OpAssign:
			var rel *relation.Relation
			if rel, err = rebuild(db, m); err == nil {
				err = tx.Assign(m.Name, rel)
			}
		default:
			// Declarations are not transactional; the store logs each alone.
			err = fmt.Errorf("mutation op %d inside a multi-mutation batch", m.Op)
		}
		if err != nil {
			return err
		}
	}
	return tx.Commit()
}

// rebuild reconstructs an OpAssign mutation's relation value against the
// variable's declared type.
func rebuild(db *store.Database, m store.Mutation) (*relation.Relation, error) {
	if m.Rel != nil {
		return m.Rel, nil
	}
	typ, ok := db.Type(m.Name)
	if !ok {
		return nil, fmt.Errorf("assign to undeclared variable %q", m.Name)
	}
	return relation.FromTuples(typ, m.Tuples...)
}

// applyOne applies a single mutation directly.
func applyOne(db *store.Database, m store.Mutation) error {
	switch m.Op {
	case store.OpDeclare:
		return db.Declare(m.Name, m.Type)
	case store.OpAssign:
		rel, err := rebuild(db, m)
		if err != nil {
			return err
		}
		return db.Assign(m.Name, rel)
	case store.OpInsert:
		return db.Insert(m.Name, m.Tuples...)
	default:
		return fmt.Errorf("unknown mutation op %d", m.Op)
	}
}

// EncodeBatch serializes one mutation batch into a record payload — the same
// encoding Append frames into the log, exposed so the replication stream
// ships batches in the log's own format.
func EncodeBatch(batch []store.Mutation) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeBatch(&buf, batch); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeBatch appends the payload encoding of batch to buf. Insert and assign
// tuple blocks share one layout (name, arity, count, values); an assignment's
// tuples are written in iteration order — replay rebuilds a set, so the order
// carries no meaning and sorting a whole variable per commit buys nothing.
func encodeBatch(buf *bytes.Buffer, batch []store.Mutation) error {
	w := bufio.NewWriter(buf)
	if err := store.WriteUvarint(w, uint64(len(batch))); err != nil {
		return err
	}
	for _, m := range batch {
		if err := w.WriteByte(byte(m.Op)); err != nil {
			return err
		}
		if err := store.WriteString(w, m.Name); err != nil {
			return err
		}
		switch m.Op {
		case store.OpDeclare:
			if err := store.WriteRelationType(w, m.Type); err != nil {
				return err
			}
		case store.OpAssign:
			if err := writeBlockHeader(w, m.Rel.Type().Element.Arity(), m.Rel.Len()); err != nil {
				return err
			}
			var err error
			m.Rel.Each(func(t value.Tuple) bool {
				err = writeTuple(w, t)
				return err == nil
			})
			if err != nil {
				return err
			}
		case store.OpInsert:
			arity := 0
			if len(m.Tuples) > 0 {
				arity = len(m.Tuples[0])
			}
			if err := writeBlockHeader(w, arity, len(m.Tuples)); err != nil {
				return err
			}
			for _, t := range m.Tuples {
				if err := writeTuple(w, t); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("wal: cannot encode mutation op %d", m.Op)
		}
	}
	return w.Flush()
}

// writeBlockHeader writes a tuple block's arity and tuple count.
func writeBlockHeader(w *bufio.Writer, arity, n int) error {
	if err := store.WriteUvarint(w, uint64(arity)); err != nil {
		return err
	}
	return store.WriteUvarint(w, uint64(n))
}

func writeTuple(w *bufio.Writer, t value.Tuple) error {
	for _, v := range t {
		if err := store.WriteValue(w, v); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBatch parses a record payload produced by EncodeBatch. Assign
// mutations come back with Tuples populated (Apply rebuilds the relation
// against the declared type).
//
// A replica decodes the payloads its primary streams with it, so no count
// in a payload is trusted with memory: each is checked against the bytes
// left before anything is allocated for it. A mutation takes at least one
// byte and a value at least two (a kind byte and its payload); a block of
// zero-arity tuples holds at most one, the empty tuple.
func DecodeBatch(payload []byte) ([]store.Mutation, error) {
	r := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if count > uint64(r.Len()) {
		return nil, fmt.Errorf("corrupt batch count %d, %d byte(s) left in the payload", count, r.Len())
	}
	batch := make([]store.Mutation, 0, count)
	for i := uint64(0); i < count; i++ {
		op, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		m := store.Mutation{Op: store.Op(op)}
		switch m.Op {
		case store.OpDeclare:
			if m.Name, err = store.ReadString(r); err != nil {
				return nil, err
			}
			if m.Type, err = store.ReadRelationType(r); err != nil {
				return nil, err
			}
		case store.OpAssign, store.OpInsert:
			if m.Name, err = store.ReadString(r); err != nil {
				return nil, err
			}
			arity, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			n, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if left := uint64(r.Len()); n > 0 && (arity > left || arity == 0 && n > 1 || arity > 0 && n > left/(2*arity)) {
				return nil, fmt.Errorf("corrupt tuple block %d x %d, %d byte(s) left in the payload", n, arity, left)
			}
			m.Tuples = make([]value.Tuple, n)
			for j := range m.Tuples {
				tup := make(value.Tuple, arity)
				for k := range tup {
					if tup[k], err = store.ReadValue(r); err != nil {
						return nil, err
					}
				}
				m.Tuples[j] = tup
			}
		default:
			return nil, fmt.Errorf("unknown mutation op %d", op)
		}
		batch = append(batch, m)
	}
	return batch, nil
}

// poisonLocked records the first unrecoverable I/O failure and returns it.
// Caller holds l.mu.
func (l *Log) poisonLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Append implements store.Logger: it durably appends one mutation batch as a
// single record, cutting a snapshot checkpoint first when the log has grown
// past the configured threshold. It is called with the store's write lock
// held and the pre-batch state closure, so the snapshot lands at exactly the
// log position being appended to.
//
// A write or fsync failure poisons the log (see the package comment's
// failure model): the mutation is aborted, nothing is published, and every
// later Append fails with a *PoisonedError. A cleanly failed automatic
// checkpoint does not fail the append — the record lands on the current log,
// which just keeps growing until a later checkpoint succeeds.
func (l *Log) Append(batch []store.Mutation, state func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return &PoisonedError{Cause: l.err}
	}
	if l.every > 0 && l.n >= l.rotateAt {
		if err := l.rotateRetryLocked(state); err != nil {
			if l.err != nil {
				return &PoisonedError{Cause: l.err}
			}
			// Clean checkpoint failure: the old generation is intact and the
			// log is still appendable, so prefer availability — append to the
			// current log and re-attempt the rotation only after another
			// checkpoint interval, not on every append.
			l.rotateAt = l.n + l.every
		}
	}
	// The payload is encoded straight behind the reserved frame header, which
	// is filled in place once the length and checksum are known.
	var buf bytes.Buffer
	var header [frameHeaderLen]byte
	buf.Write(header[:])
	if err := encodeBatch(&buf, batch); err != nil {
		return err
	}
	frame := buf.Bytes()
	payload := frame[frameHeaderLen:]
	if len(payload) > maxRecordLen {
		// Refuse a frame replay would misread as a torn tail (and that
		// would overflow the uint32 length at 4GiB): the commit fails
		// cleanly instead of reporting success and vanishing on recovery.
		return fmt.Errorf("wal: batch of %d bytes exceeds the %d-byte record limit", len(payload), maxRecordLen)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.f.Write(frame); err != nil {
		// Part of the frame may or may not be in the page cache; neither a
		// truncate nor further appends can be trusted after a failed write,
		// so the log is poisoned. Recovery truncates the torn frame.
		return l.poisonLocked(err)
	}
	if l.sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			// No fsync retry: after a failed fsync the kernel may have
			// dropped the dirty pages while marking them clean, so a retry
			// that "succeeds" can mask the loss. The commit is reported
			// failed and the log poisoned; recovery decides what survived.
			return l.poisonLocked(err)
		}
	}
	l.n++
	l.off += int64(len(frame))
	return nil
}

// Checkpoint implements store.Logger: it writes a snapshot of the current
// state and truncates the log, retrying cleanly failed attempts per the
// configured retry policy. Callers go through store.Database.Checkpoint,
// which supplies the state closure under the store lock.
func (l *Log) Checkpoint(state func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return &PoisonedError{Cause: l.err}
	}
	return l.rotateRetryLocked(state)
}

// rotateRetryLocked runs rotateLocked with the configured bounded retry:
// only clean failures (rename not committed, old generation intact) are
// retried; a poisoned log stops immediately.
func (l *Log) rotateRetryLocked(state func(io.Writer) error) error {
	backoff := l.backoff
	var err error
	for attempt := 0; ; attempt++ {
		err = l.rotateLocked(state)
		if err == nil || l.err != nil || attempt >= l.retries {
			return err
		}
		if backoff > 0 {
			// Sleeping with l.mu held: concurrent appends wait (they would
			// fail against the same full/broken disk), snapshot reads proceed.
			time.Sleep(backoff)
			backoff *= 2
		}
	}
}

// rotateLocked cuts generation gen+1: snapshot (write temp, fsync, rename),
// fresh empty log, then removal of generation gen. The rename is the commit
// point: failures before it abort cleanly (generation gen untouched, log
// still appendable — that is what makes checkpoints retryable); a failure to
// make the rename durable poisons the log.
func (l *Log) rotateLocked(state func(io.Writer) error) error {
	next := l.gen + 1
	snap := snapPath(l.dir, next)
	tmp := snap + ".tmp"
	sf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	// Temp-file removal on the abort paths is best-effort: the next Open
	// sweeps stray *.tmp files.
	if err := state(sf); err != nil {
		_ = sf.Close()
		_ = l.fs.Remove(tmp)
		return err
	}
	if err := sf.Sync(); err != nil {
		_ = sf.Close()
		_ = l.fs.Remove(tmp)
		return err
	}
	if err := sf.Close(); err != nil {
		_ = l.fs.Remove(tmp)
		return err
	}
	// The next generation's log is created BEFORE the snapshot rename, so
	// the rename stays the single commit point: on any failure up to it the
	// directory still holds only generation gen (a stray empty wal-(gen+1)
	// without its snapshot is removed by the next Open), and after it the
	// new generation is complete.
	nf, err := l.fs.OpenFile(logPath(l.dir, next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		_ = l.fs.Remove(tmp)
		return err
	}
	if err := l.fs.Rename(tmp, snap); err != nil {
		_ = nf.Close()
		_ = l.fs.Remove(logPath(l.dir, next))
		_ = l.fs.Remove(tmp)
		return err
	}
	// The rename must now be made durable. If this directory fsync fails it
	// is unknowable whether a crash would surface the old or the new
	// generation, and proceeding would delete the old one — so the failure
	// poisons the log (both generations stay on disk; recovery picks the
	// newest complete one).
	if err := l.fs.SyncDir(l.dir); err != nil {
		_ = nf.Close()
		return l.poisonLocked(fmt.Errorf("wal: making checkpoint rename %s durable: %w", snap, err))
	}
	old := l.gen
	// Closing the outgoing log and removing the superseded generation are
	// best-effort: the snapshot that just committed supersedes the old log's
	// records, and Open sweeps stale generations.
	_ = l.f.Close()
	l.f, l.gen, l.n, l.off = nf, next, 0, 0
	l.rotateAt = l.every
	_ = l.fs.Remove(logPath(l.dir, old))
	_ = l.fs.Remove(snapPath(l.dir, old))
	// The checkpoint is committed and the old generation gone: let the
	// storage engine retire what the superseded snapshot referenced.
	if l.onCheckpoint != nil {
		l.onCheckpoint(next)
	}
	return nil
}

// Err returns the sticky error that poisoned the log, or nil while it is
// healthy. It stays set after Close, so callers can distinguish "closed
// clean" from "closed poisoned".
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close syncs and closes the log; further appends fail with ErrClosed. A
// poisoned log closes without the final sync — retrying an fsync whose
// predecessor failed could report success while masking lost data — and
// Close (first and repeated) reports the poison instead of success.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		if l.err != nil {
			return &PoisonedError{Cause: l.err}
		}
		return nil
	}
	l.closed = true
	if l.err != nil {
		_ = l.f.Close()
		return &PoisonedError{Cause: l.err}
	}
	err := l.f.Sync()
	if err != nil {
		l.err = err
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the database directory.
func (l *Log) Dir() string { return l.dir }

// Generation returns the current checkpoint generation (for tests and
// monitoring).
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// TailRecords returns the number of records in the current log tail (for
// tests and monitoring).
func (l *Log) TailRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
