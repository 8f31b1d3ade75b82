// Package store implements the database-variable layer of the DBPL
// environment: named, typed relation variables with the paper's checked
// assignment semantics (section 2.2), snapshot transactions, and binary
// persistence.
//
// Assignment to a relation variable re-checks the key constraint (the
// run-time test of section 2.2) and is atomic. Selector guards (section 2.3's
// Infront[refint] := rex) are checked above the store, by package compile,
// before the assignment reaches it.
package store

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Op identifies one kind of logged mutation.
type Op byte

// The logged mutation kinds.
const (
	// OpDeclare introduces a variable (module DDL or programmatic Declare).
	OpDeclare Op = 1
	// OpAssign replaces a variable's value wholesale (assignment statements,
	// programmatic Assign, and each variable a committed Tx overwrote or
	// wrote over an overtaken base).
	OpAssign Op = 2
	// OpInsert adds tuples to a variable (Insert, and each variable a
	// committed Tx only inserted into while its base stayed published).
	OpInsert Op = 3
)

// Mutation is one committed state change, as handed to a Logger immediately
// before it is published.
type Mutation struct {
	Op     Op
	Name   string
	Type   schema.RelationType // OpDeclare
	Rel    *relation.Relation  // OpAssign: the full new value
	Tuples []value.Tuple       // OpInsert
}

// Logger receives every committed mutation before it is published
// (write-ahead). Append is called with the database's write lock held; state
// writes the engine's checkpoint of the pre-batch published state (see
// CheckpointWriter), so the logger can cut a snapshot checkpoint at exactly
// the log position it is appending to. An Append error aborts the mutation:
// nothing is published.
//
// Lock ordering: the store lock is always acquired before any logger-internal
// lock (Append and Checkpoint are only ever called with db.mu held), so a
// Logger must not call back into the Database.
type Logger interface {
	Append(batch []Mutation, state func(io.Writer) error) error
	Checkpoint(state func(io.Writer) error) error
}

// Observer receives every committed mutation synchronously at the store's
// publication points — the same choke point the WAL Logger and the
// subscription fan-out use — with the new published relation pointer in hand.
// The materialized-view cache implements it to maintain derived results
// incrementally.
//
// CommittedGrow reports growth expressible as a tuple delta: next is exactly
// the previous published value plus tuples (Insert, and insert-only Tx writes
// whose base was not overtaken). CommittedReset reports everything else — an
// Assign overwrite, a Tx write that replaced or shrank the value, a fresh
// Declare, an Insert the engine appended without a value in memory. A
// replacement with a non-nil next is still maintainable: next is the whole
// new published value, so an observer holding the value it last saw can diff
// the two. A nil next published no pointer to maintain against; the only
// safe reaction to it is invalidation.
//
// Both calls run with the database's write lock held: they must be fast and,
// like a Logger, must never call back into the Database.
type Observer interface {
	CommittedGrow(name string, tuples []value.Tuple, next *relation.Relation)
	CommittedReset(name string, next *relation.Relation)
}

// Database is a set of named, typed relation variables.
type Database struct {
	mu sync.RWMutex
	// engine binds variable names to relation values (see Engine); the
	// default is the fully resident memory engine.
	engine Engine
	// logger, when set, receives every mutation before it is published.
	logger Logger
	// subs are the attached log subscribers (replication streams); they
	// receive every committed batch after the logger has accepted it.
	subs []*Subscription
	// observer, when set, is notified synchronously at every publication
	// point (see Observer).
	observer Observer
}

// NewDatabase returns an empty database on the memory engine.
func NewDatabase() *Database {
	return NewDatabaseWith(NewMemoryEngine())
}

// NewDatabaseWith returns an empty database bound to the given storage
// engine.
func NewDatabaseWith(engine Engine) *Database {
	return &Database{engine: engine}
}

// Declare introduces a variable of the given type, initialized empty.
func (db *Database) Declare(name string, typ schema.RelationType) error {
	if err := typ.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.engine.Type(name); dup {
		return fmt.Errorf("store: variable %q already declared", name)
	}
	if err := db.logLocked([]Mutation{{Op: OpDeclare, Name: name, Type: typ}}); err != nil {
		return err
	}
	db.engine.Declare(name, typ)
	// A fresh declaration can change what a cached name resolves to.
	rel, _, _ := db.engine.Get(name)
	db.observeReset(name, rel)
	return nil
}

// logLocked hands a batch to the attached logger (write-ahead: the caller
// publishes only after it returns nil) and, once the logger has accepted it,
// fans it out to the attached subscribers. Caller holds db.mu and publishes
// unconditionally after a nil return, so a batch a subscriber receives is a
// batch that becomes visible — the subscription stream is exactly the
// committed mutation sequence.
func (db *Database) logLocked(batch []Mutation) error {
	if db.logger != nil {
		if err := db.logger.Append(batch, db.ckptStateLocked); err != nil {
			return err
		}
	}
	db.notifyLocked(batch)
	return nil
}

// ckptStateLocked is the checkpoint-state closure handed to the logger: the
// engine's checkpoint (the paged engine's dirty-page flush plus manifest); an
// engine without one cannot checkpoint. Caller holds db.mu. Replication
// snapshots (Subscribe) deliberately do not come through here — a replica is
// a memory-engine store and needs the logical Save image.
func (db *Database) ckptStateLocked(w io.Writer) error {
	cw, ok := db.engine.(CheckpointWriter)
	if !ok {
		return fmt.Errorf("store: a %T has no checkpoint format", db.engine)
	}
	return cw.WriteCheckpoint(w)
}

// Subscription is one attached consumer of the database's committed-mutation
// stream (a replication feed). Batches arrive on C in commit order, starting
// from the state captured at Subscribe time. A subscriber that falls behind
// the channel's capacity is cut off — C is closed — rather than ever blocking
// a writer; the consumer detects the close and re-subscribes, obtaining a
// fresh base state (the same resync it needs after a dropped connection).
type Subscription struct {
	// C delivers committed mutation batches in commit order. It is closed
	// when the subscription is cancelled or cut off for falling behind.
	C <-chan []Mutation

	db *Database
	ch chan []Mutation
}

// Subscribe atomically captures the database's current state (written to w in
// Save format) and attaches a subscription that will receive every mutation
// batch committed after that state — no gap, no overlap. buf is the channel
// capacity bounding how far the consumer may fall behind before it is cut
// off; it must be at least 1.
//
// The capture runs under the database's write lock, so no mutation can land
// between the state snapshot and the attachment.
func (db *Database) Subscribe(w io.Writer, buf int) (*Subscription, error) {
	if buf < 1 {
		buf = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.saveLocked(w); err != nil {
		return nil, err
	}
	s := &Subscription{db: db, ch: make(chan []Mutation, buf)}
	s.C = s.ch
	db.subs = append(db.subs, s)
	return s, nil
}

// Close detaches the subscription and closes its channel. It is safe to call
// more than once, and safe concurrently with writers.
func (s *Subscription) Close() {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	s.db.dropSubLocked(s)
}

// notifyLocked fans a committed batch out to the subscribers. A full channel
// means the consumer is too far behind to ever see a contiguous stream again,
// so it is cut off (channel closed, subscription dropped) instead of blocking
// the writer. Caller holds db.mu.
func (db *Database) notifyLocked(batch []Mutation) {
	for i := 0; i < len(db.subs); {
		s := db.subs[i]
		select {
		case s.ch <- batch:
			i++
		default:
			db.dropSubLocked(s)
		}
	}
}

// dropSubLocked removes s from the subscriber list and closes its channel (at
// most once). Caller holds db.mu.
func (db *Database) dropSubLocked(s *Subscription) {
	for i, cur := range db.subs {
		if cur == s {
			db.subs = append(db.subs[:i], db.subs[i+1:]...)
			close(s.ch)
			return
		}
	}
}

// SetObserver attaches (nil detaches) the commit observer. The observer sees
// only mutations committed after the call.
func (db *Database) SetObserver(o Observer) {
	db.mu.Lock()
	db.observer = o
	db.mu.Unlock()
}

// observeGrow and observeReset notify the attached observer at a publication
// point. Caller holds db.mu.
func (db *Database) observeGrow(name string, tuples []value.Tuple, next *relation.Relation) {
	if db.observer != nil && len(tuples) > 0 {
		db.observer.CommittedGrow(name, tuples, next)
	}
}

func (db *Database) observeReset(name string, next *relation.Relation) {
	if db.observer != nil {
		db.observer.CommittedReset(name, next)
	}
}

// NameOf returns the variable whose current published value is rel (pointer
// identity — published values are immutable and every write publishes a fresh
// pointer, so a match means rel is exactly some variable's current state).
func (db *Database) NameOf(rel *relation.Relation) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Current(rel)
}

// ReadLocked runs fn with the database read-locked, passing a getter over the
// current variable bindings. No mutation can publish (and therefore no
// Observer callback can run) while fn executes, which lets a cache verify a
// set of published pointers and install an entry atomically with respect to
// writers. fn must not call back into the Database.
func (db *Database) ReadLocked(fn func(get func(string) (*relation.Relation, bool))) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(func(name string) (*relation.Relation, bool) {
		r, ok, _ := db.engine.Get(name)
		return r, ok
	})
}

// SetLogger attaches (nil detaches) the write-ahead logger without logging
// anything — used right after recovery, when the log already represents the
// database's state.
func (db *Database) SetLogger(l Logger) {
	db.mu.Lock()
	db.logger = l
	db.mu.Unlock()
}

// AdoptLogger attaches l after persisting the database's entire current
// state as a fresh snapshot checkpoint, which supersedes whatever the log
// held before. A durable session uses it when LoadStore swaps in a
// replacement store; on failure nothing on disk has moved past its commit
// point and the logger is not attached, so the session can keep the previous
// store durable (see Retire).
func (db *Database) AdoptLogger(l Logger) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := l.Checkpoint(db.ckptStateLocked); err != nil {
		return err
	}
	db.logger = l
	return nil
}

// errRetired is the error of every write to a database that Retire handed
// its engine over from.
var errRetired = errors.New("store: the database was replaced; nothing written")

// Retire runs replace with db write-locked, so no read or write of db
// overlaps it. replace builds a store that takes over db's engine (LoadStore
// on a durable database imports into the engine db runs on); once it
// succeeds, db refuses every later write with errRetired, since publishing
// into that engine would now write into the replacement unlogged. If replace
// fails, db is left as it was.
func (db *Database) Retire(replace func() error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	err := replace()
	if err == nil {
		db.logger = retiredLogger{}
	}
	return err
}

// retiredLogger is the logger of a retired database: it refuses everything.
type retiredLogger struct{}

func (retiredLogger) Append([]Mutation, func(io.Writer) error) error { return errRetired }
func (retiredLogger) Checkpoint(func(io.Writer) error) error         { return errRetired }

// Checkpoint asks the attached logger to cut a snapshot of the current state
// and truncate the log; it is a no-op without a logger. Concurrent mutations
// wait (they need the write lock); concurrent queries proceed against their
// snapshots.
func (db *Database) Checkpoint() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.logger == nil {
		return nil
	}
	return db.logger.Checkpoint(db.ckptStateLocked)
}

// Get returns the current value of a variable. The returned relation is the
// live value; callers must not mutate it (use Assign). On the paged engine a
// cold variable is materialized from its pages; an I/O failure there reports
// as not-found here (the engine records the cause) — paths that must surface
// the error (Snapshot, Begin, Save, Insert) use the engine directly.
func (db *Database) Get(name string) (*relation.Relation, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok, _ := db.engine.Get(name)
	return r, ok
}

// Type returns the declared type of a variable.
func (db *Database) Type(name string) (schema.RelationType, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Type(name)
}

// Names returns the declared variable names, sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.engine.Names()
	sort.Strings(out)
	return out
}

// checkedValue re-types rex into the variable's declared type, enforcing the
// key constraint and element domains.
func checkedValue(name string, typ schema.RelationType, rex *relation.Relation) (*relation.Relation, error) {
	// Kind compatibility statically; the per-tuple Insert below re-checks
	// the element domains (subranges) and the key constraint.
	if !rex.Type().Element.KindCompatibleWith(typ.Element) {
		return nil, fmt.Errorf("store: cannot assign %s to %q of type %s",
			rex.Type().Element, name, typ.Element)
	}
	out := relation.New(typ)
	var failure error
	rex.Each(func(t value.Tuple) bool {
		failure = out.Insert(t)
		return failure == nil
	})
	if failure != nil {
		return nil, failure
	}
	return out, nil
}

// Assign replaces the variable's value with rex after re-checking the key
// constraint. On any violation the variable keeps its previous value
// (assignment is atomic, as the paper's conditional pattern requires). The
// check examines only rex — never the variable's current value — so it runs
// outside db.mu, and check-then-swap preserves the atomic last-writer-wins
// semantics.
func (db *Database) Assign(name string, rex *relation.Relation) error {
	typ, ok := db.Type(name)
	if !ok {
		return fmt.Errorf("store: assignment to undeclared variable %q", name)
	}
	out, err := checkedValue(name, typ, rex)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.logLocked([]Mutation{{Op: OpAssign, Name: name, Rel: out}}); err != nil {
		return err
	}
	db.engine.Publish(name, out)
	db.observeReset(name, out)
	return nil
}

// Insert adds tuples to a variable, under the key constraint, all or nothing:
// on any violation the variable keeps its previous value. The engine checks
// the batch (Engine.Grow); only the tuples it does not already hold are
// logged — exactly as an insert-only Tx commit does — and published, and a
// batch that adds nothing logs nothing. The published relation is never
// mutated in place, so snapshot readers keep iterating a consistent state.
//
// The cost is O(batch): the copy-on-write Clone of a resident value is O(1),
// sealed chunks shared by prefix. A paged variable that is not resident is
// first decoded, as by a read, if it fits the engine's residency budget; one
// too large for the budget is not decoded at all, and the first Insert into
// it adds one key-only pass over its pages (to build the key index the check
// probes).
// Observers then see a reset rather than a delta against a pointer that was
// never published.
func (db *Database) Insert(name string, tuples ...value.Tuple) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.engine.Type(name); !ok {
		return fmt.Errorf("store: insert into undeclared variable %q", name)
	}
	added, next, err := db.engine.Grow(name, tuples)
	if err != nil || len(added) == 0 {
		return err
	}
	if err := db.logLocked([]Mutation{{Op: OpInsert, Name: name, Tuples: added}}); err != nil {
		return err
	}
	db.engine.PublishDelta(name, added, next)
	if next == nil {
		db.observeReset(name, nil)
	} else {
		db.observeGrow(name, added, next)
	}
	return nil
}

// CachedPaths reports the number of hash indexes memoized on the currently
// published, memory-resident variable values (for tests and monitoring).
func (db *Database) CachedPaths() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, name := range db.engine.Names() {
		if r, ok := db.engine.Cached(name); ok {
			n += r.Indexes()
		}
	}
	return n
}

// Snapshot returns the current binding of every variable. The map is a
// private copy; the relations are the published values, which are immutable
// once published (writers replace, never mutate), so the snapshot can be read
// without further locking while writers proceed. A variable whose
// materialization fails (paged-engine I/O error) fails the snapshot with that
// error, naming the variable; page I/O errors are retryable, so the next
// Snapshot may succeed. Variables are read in name order, so which values a
// paged engine's residency budget keeps afterwards is deterministic.
func (db *Database) Snapshot() (map[string]*relation.Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := db.engine.Names()
	sort.Strings(names)
	out := make(map[string]*relation.Relation, len(names))
	for _, n := range names {
		r, ok, err := db.engine.Get(n)
		if err != nil {
			return nil, fmt.Errorf("store: reading %q: %w", n, err)
		}
		if ok {
			out[n] = r
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

// Tx is a snapshot transaction: reads see the database as of Begin plus the
// transaction's own writes; Commit publishes all writes atomically (last
// writer wins, as DBPL transactions are serialized); Rollback discards them.
type Tx struct {
	db      *Database
	overlay map[string]*relation.Relation
	base    map[string]*relation.Relation
	done    bool
	// inserted tracks, per variable, the tuples added by Tx.Insert while the
	// write set for that variable is still pure growth over the Begin
	// snapshot; a Tx.Assign overwrites the variable and moves it to
	// overwritten permanently. Commit uses this to classify each write as
	// growth (a logged, published and observed tuple delta) or a full-value
	// replacement.
	inserted    map[string][]value.Tuple
	overwritten map[string]bool
}

// Begin starts a transaction over a stable snapshot; it fails as Snapshot
// does.
func (db *Database) Begin() (*Tx, error) {
	base, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Tx{
		db:          db,
		base:        base,
		overlay:     make(map[string]*relation.Relation),
		inserted:    make(map[string][]value.Tuple),
		overwritten: make(map[string]bool),
	}, nil
}

// Get reads a variable inside the transaction.
func (tx *Tx) Get(name string) (*relation.Relation, bool) {
	if r, ok := tx.overlay[name]; ok {
		return r, true
	}
	r, ok := tx.base[name]
	return r, ok
}

// Assign writes a variable inside the transaction (checked like
// Database.Assign).
func (tx *Tx) Assign(name string, rex *relation.Relation) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	typ, ok := tx.db.Type(name)
	if !ok {
		return fmt.Errorf("store: assignment to undeclared variable %q", name)
	}
	out, err := checkedValue(name, typ, rex)
	if err != nil {
		return err
	}
	tx.overlay[name] = out
	tx.overwritten[name] = true
	delete(tx.inserted, name)
	return nil
}

// Insert adds tuples inside the transaction, copying on first write. The call
// is all-or-nothing, like Database.Insert: on a key or domain violation the
// transaction holds none of its tuples. Tuples the variable already holds are
// not recorded, so an insert-only commit logs and appends only new ones, and
// a call that adds nothing leaves the variable unwritten.
func (tx *Tx) Insert(name string, tuples ...value.Tuple) error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	cur, ok := tx.Get(name)
	if !ok {
		return fmt.Errorf("store: insert into undeclared variable %q", name)
	}
	if _, own := tx.overlay[name]; !own {
		cur = cur.Clone()
	}
	added, err := cur.InsertAll(tuples...)
	if err != nil || len(added) == 0 {
		return err
	}
	tx.overlay[name] = cur
	if !tx.overwritten[name] {
		tx.inserted[name] = append(tx.inserted[name], added...)
	}
	return nil
}

// Commit publishes the transaction's writes atomically. With a logger
// attached, the whole write set is logged as one batch before anything is
// published, so recovery sees either the entire transaction or none of it; a
// log failure leaves the transaction open and the store untouched.
//
// Each written variable is classified once, under the write lock, and that
// one classification picks its log record, its engine publication and its
// observer call. A variable the transaction only inserted into, and whose
// published value is still the Begin snapshot, commits as growth: an OpInsert
// record of just the inserted tuples, PublishDelta, CommittedGrow. Because the
// check runs under the lock that also orders the log, the state at this log
// position is exactly the base those tuples were inserted into, so replaying
// the delta reproduces the published value. Everything else — Tx.Assign, a
// base overtaken by a concurrent writer since Begin, a paged value evicted
// since Begin — commits the full final value (OpAssign, Publish,
// CommittedReset): the overlay is then a last-writer-wins replacement of a
// value the log position does not hold.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("store: transaction already finished")
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	batch := make([]Mutation, 0, len(tx.overlay))
	for _, n := range tx.Writes() {
		prev, _ := tx.db.engine.Cached(n)
		// tx.inserted holds n only while the write set is pure insert growth.
		if tups, grown := tx.inserted[n]; grown && prev != nil && tx.base[n] == prev {
			batch = append(batch, Mutation{Op: OpInsert, Name: n, Tuples: tups})
		} else {
			batch = append(batch, Mutation{Op: OpAssign, Name: n, Rel: tx.overlay[n]})
		}
	}
	if len(batch) > 0 {
		if err := tx.db.logLocked(batch); err != nil {
			return err
		}
	}
	tx.done = true
	for _, m := range batch {
		next := tx.overlay[m.Name]
		if m.Op == OpInsert {
			tx.db.engine.PublishDelta(m.Name, m.Tuples, next)
			tx.db.observeGrow(m.Name, m.Tuples, next)
		} else {
			tx.db.engine.Publish(m.Name, next)
			tx.db.observeReset(m.Name, next)
		}
	}
	return nil
}

// Rollback discards the transaction's writes.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.overlay = nil
}

// Snapshot returns the binding of every variable as the transaction sees it:
// the Begin snapshot overlaid with the transaction's own writes. Like
// Database.Snapshot, the map is a private copy; the error is always nil (every
// value was materialized at Begin).
func (tx *Tx) Snapshot() (map[string]*relation.Relation, error) {
	out := make(map[string]*relation.Relation, len(tx.base)+len(tx.overlay))
	maps.Copy(out, tx.base)
	maps.Copy(out, tx.overlay)
	return out, nil
}

// Writes returns the names of the variables the transaction has written,
// sorted. Exposed so commit-time guard checks can re-validate exactly the
// written set.
func (tx *Tx) Writes() []string {
	out := make([]string, 0, len(tx.overlay))
	for n := range tx.overlay {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Done reports whether the transaction has been committed or rolled back.
func (tx *Tx) Done() bool { return tx.done }

// DB returns the database the transaction began on; the session layer uses
// the identity to detect a store swap (LoadStore) between Begin and Commit.
func (tx *Tx) DB() *Database { return tx.db }
