package dbpl

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/matview"
	"repro/internal/optimizer"
	"repro/internal/pagestore"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/typecheck"
	"repro/internal/value"
	"repro/internal/wal"
)

// DB is a DBPL database: relation variables plus the accumulated type,
// selector, and constructor declarations of every executed module.
//
// A DB is safe for concurrent use. Every statement, query and Apply evaluates
// in a private environment and engine (newEval) built over the published
// declarations and a snapshot of the relation variables, so evaluations run
// in parallel with each other and with writers, which synchronize in the
// store.
type DB struct {
	Store *store.Database
	// LastProgram is the most recently compiled program (plans, quant
	// graph, positivity reports).
	LastProgram *compile.Program

	// execMu serializes whole modules (compile, publish, statements) against
	// each other and against LoadStore. Queries and transactions never take
	// it.
	execMu sync.Mutex
	// mu guards Store, decls, LastProgram and mode.
	mu sync.RWMutex
	// decls is the published declaration snapshot, replaced as a whole by
	// publish and never mutated afterwards.
	decls *declSnapshot
	// mode is the fixpoint strategy (WithMode, SetMode).
	mode Mode

	statsMu   sync.Mutex
	lastStats Stats

	// parallelism bounds the equations a fixpoint round evaluates at once
	// (WithParallelism). Fixed at Open and read without locking afterwards.
	parallelism int

	plans *planCache

	// wal is the write-ahead log of a durable database (Open with WithPath);
	// nil for a memory-only one. It is attached to the store as its logger,
	// so every mutation path — module DDL, Insert, Assign, LoadStore, Tx
	// commits — logs through it before publishing.
	wal *wal.Log

	// pager is the paged storage engine backing the store of a durable
	// database; nil for a memory-only one. The store owns its use; the
	// session keeps the handle for Health stats, LoadStore, and Close.
	pager *pagestore.Engine

	// views is the materialized derived-relation cache (on by default;
	// WithoutMaterialization), registered as the store's commit observer so
	// committed deltas maintain cached fixpoints incrementally. nil when
	// disabled; the matview API is nil-safe, so unconditional Reset/Snapshot
	// calls are fine, but it is never assigned into an interface field when
	// nil.
	views *matview.Cache

	// noOptimize (WithoutOptimization) skips the optimizer pass pipeline at
	// Prepare time and makes every selector application scan its base
	// (eval.Env.ScanSelectors). Fixed at Open and read without locking
	// afterwards.
	noOptimize bool
}

// Open returns a database configured by the given options; with no options
// it is memory-only, with strict positivity checking, semi-naive fixpoints,
// and a 128-entry plan cache. With WithPath it is durable: its relations live
// in heap pages, the base relations persisted in the directory are recovered
// (the page manifest of the last checkpoint plus the committed write-ahead-log
// tail), and every later mutation is logged before it is published. Derived
// constructor results are not persisted — re-execute the schema modules after
// reopening and they recompute.
func Open(opts ...Option) (*DB, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	d := &DB{
		Store:       store.NewDatabase(),
		mode:        cfg.mode,
		plans:       newPlanCache(),
		noOptimize:  cfg.noOptimize,
		parallelism: cfg.parallelism,
	}
	// Strictness is fixed here: every later checker is a clone of this one.
	chk := typecheck.New()
	chk.Strict = cfg.strict
	d.publish(chk, core.NewRegistry())
	if cfg.engine == EnginePaged && cfg.path == "" {
		return nil, fmt.Errorf("dbpl: the paged storage engine requires WithPath (the heap file is the primary copy)")
	}
	if cfg.path != "" {
		// Without WithBufferPoolPages residency is unbounded: every value
		// stays decoded and the pool holds only dirty pages.
		pcfg := pagestore.Config{FS: cfg.fs, PoolPages: cfg.poolPages}
		if cfg.poolPages <= 0 {
			pcfg.ResidentBytes = -1
		}
		pager, err := pagestore.Open(cfg.path, pcfg)
		if err != nil {
			return nil, fmt.Errorf("dbpl: opening paged storage at %s: %w", cfg.path, err)
		}
		// Recovery builds the store over the page engine: an empty directory
		// starts from blank pages, the newest snapshot loads as a page
		// manifest (contents stay on disk and fault in on demand), and a
		// committed checkpoint retires superseded slots.
		wlog, st, err := wal.Open(cfg.path, wal.Options{
			Sync:              cfg.syncPolicy,
			CheckpointEvery:   cfg.checkpointEvery,
			CheckpointRetries: cfg.ckptRetries,
			CheckpointBackoff: cfg.ckptBackoff,
			FS:                cfg.fs,
			NewStore:          func() (*store.Database, error) { return store.NewDatabaseWith(pager), nil },
			LoadSnapshot:      pager.Load,
			OnCheckpoint:      pager.CheckpointCommitted,
		})
		if err != nil {
			_ = pager.Close()
			return nil, fmt.Errorf("dbpl: opening durable store at %s: %w", cfg.path, err)
		}
		d.Store, d.wal, d.pager = st, wlog, pager
		st.SetLogger(wlog)
	}
	if !cfg.noMatviews {
		d.views = matview.New(DefaultMaterializedViews)
		d.views.Attach(d.Store)
	}
	return d, nil
}

// store returns the current store pointer under the lock: LoadStore swaps
// it, so unsynchronized reads race.
func (d *DB) store() *store.Database {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.Store
}

// StoreSnapshot returns the current relation-variable store under the
// session lock. Infrastructure that runs concurrently with LoadStore (the
// network server, a replica's health reporting) must use this instead of
// reading the Store field directly, which races with the swap.
func (d *DB) StoreSnapshot() *store.Database {
	return d.store()
}

// current samples the mutable session state — published declarations, store
// and fixpoint mode — in one consistent read.
func (d *DB) current() (*declSnapshot, *store.Database, Mode) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.decls, d.Store, d.mode
}

// SetMode selects the fixpoint strategy for subsequent evaluations.
func (d *DB) SetMode(m Mode) {
	d.mu.Lock()
	d.mode = m
	d.mu.Unlock()
}

// LastStats reports the most recent constructor evaluation (by any Exec,
// Query, or Apply on this DB). Calls that evaluate no constructor leave it
// untouched.
func (d *DB) LastStats() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.lastStats
}

// recordStats publishes a per-call engine's stats. Whether anything was
// evaluated is decided by the engine's apply counter, never by comparing
// LastStats against the zero value — an evaluation can legitimately produce
// zero-valued stats fields, and it must still replace the previous query's.
func (d *DB) recordStats(en *core.Engine) {
	if en.Applies.Load() == 0 {
		return // no constructor evaluated: keep the previous stats
	}
	d.statsMu.Lock()
	d.lastStats = en.LastStats()
	d.statsMu.Unlock()
}

// Parallelism reports how many equations of a fixpoint round are evaluated at
// once (WithParallelism; runtime.GOMAXPROCS(0) by default).
func (d *DB) Parallelism() int { return d.parallelism }

// Checkpoint forces a checkpoint of a durable database: the pages changed
// since the last one are flushed, a new page manifest becomes the snapshot,
// and the write-ahead log is truncated. It is a no-op for a memory-only
// database. Concurrent queries proceed against their snapshots; writers wait
// for the checkpoint.
//
// A cleanly failed checkpoint (the snapshot rename — its commit point — was
// never reached) leaves the previous generation intact and the log
// appendable; it is retried automatically per WithCheckpointRetry before the
// error is returned, and remains safe to retry by calling Checkpoint again.
// On a database already degraded to read-only, Checkpoint fails fast with
// the same *DegradedError contract as every other refused write — it does
// not touch the poisoned log.
func (d *DB) Checkpoint() error {
	if d.wal != nil {
		if cause := d.wal.Err(); cause != nil {
			return &DegradedError{Cause: cause}
		}
	}
	return wrapErr(d.noteMutErr(d.store().Checkpoint()))
}

// Health reports the durability state of the database.
type Health struct {
	// Durable reports whether the database is backed by a write-ahead log
	// (Open with WithPath). Memory-only databases are always ok.
	Durable bool
	// Degraded reports read-only mode: an unrecoverable I/O failure poisoned
	// the write-ahead log, writes are refused with a *DegradedError, and
	// reads keep serving the last published state.
	Degraded bool
	// Cause is the I/O failure that degraded the database; nil while ok.
	Cause error
	// Generation is the current snapshot-checkpoint generation (0 for a
	// memory-only database).
	Generation uint64
	// TailRecords is the number of write-ahead-log records appended since
	// the last checkpoint.
	TailRecords int
	// MatViews reports the materialized derived-relation cache: entry count,
	// read outcomes, and maintenance backlog.
	MatViews MatViewStats
	// Storage reports the paged storage engine's buffer pool and checkpoint
	// counters; zero-valued (Enabled false) for a memory-only database.
	Storage StorageStats
}

// StorageStats is the paged-storage section of a health report.
type StorageStats struct {
	// Enabled reports whether this database runs on the paged engine, as
	// every durable one (WithPath) does.
	Enabled bool
	// PoolPages is the buffer-pool budget in page slots; PoolUsed is the
	// resident footprint, which exceeds the budget only while nothing is
	// evictable (Overflows counts those episodes). Without
	// WithBufferPoolPages only dirty pages are resident, so PoolUsed is 0
	// right after a checkpoint.
	PoolPages, PoolUsed int
	// Hits and Misses count page accesses served from the pool versus
	// faulted in from the heap file; Evictions and WriteBacks count frames
	// detached and dirty frames flushed by eviction or checkpoint.
	Hits, Misses, Evictions, WriteBacks, Overflows uint64
	// DirtyPages is the number of resident pages awaiting write-back — the
	// incremental cost of the next checkpoint.
	DirtyPages int
	// HeapSlots is the heap file's allocated size in page slots.
	HeapSlots int64
	// ResidentRelations is the number of relation values held decoded in
	// memory; MaterializedEvictions counts decoded values dropped from that
	// residency budget, and Materializations the whole-relation decodes from
	// pages that refilled it. KeyIndexBuilds counts the key-only page passes
	// that let an Insert into a non-resident relation too large for the
	// residency budget check its key constraint without decoding it: a
	// stream of such inserts adds builds (at most one per switch between
	// such relations), not materializations.
	ResidentRelations                                       int
	MaterializedEvictions, Materializations, KeyIndexBuilds uint64
	// LastCheckpointPages and LastCheckpointBytes are the pages flushed and
	// total bytes (pages plus manifest) written by the latest checkpoint.
	LastCheckpointPages, LastCheckpointBytes uint64
	// Err is the most recent page I/O failure; unlike a poisoned log it is
	// informational — the engine keeps serving from memory and retries.
	Err error
}

// String renders the storage segment of a health line: "storage pool=…
// hit-rate=… dirty=… resident=… materializations=… key-index-builds=…".
func (s StorageStats) String() string {
	return fmt.Sprintf("storage pool=%d/%d hit-rate=%.0f%% dirty=%d resident=%d materializations=%d key-index-builds=%d",
		s.PoolUsed, s.PoolPages, 100*s.HitRate(), s.DirtyPages,
		s.ResidentRelations, s.Materializations, s.KeyIndexBuilds)
}

// HitRate is the fraction of page accesses served from the buffer pool, in
// [0, 1]; 0 before any access.
func (s StorageStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// MatViewStats is the materialized-view section of a health report.
type MatViewStats struct {
	// Enabled reports whether materialization is on (the default) for this
	// database.
	Enabled bool
	// Entries is the number of derived relations currently cached.
	Entries int
	// Hits, Misses, and Maintained count constructor reads served from cache
	// unchanged, computed from scratch, and brought current by resuming the
	// fixpoint with committed deltas.
	Hits, Misses, Maintained uint64
	// Invalidations counts cache entries dropped by non-delta-expressible
	// writes, dependency changes, maintenance failures, and eviction.
	Invalidations uint64
	// Backlog is the number of committed delta tuples queued against cached
	// fixpoints but not yet folded in by a read.
	Backlog int
}

// HitRate is the fraction of cacheable constructor reads answered from the
// cache (hits plus incremental maintenance, over all cacheable reads), in
// [0, 1]; 0 before any read.
func (m MatViewStats) HitRate() float64 {
	served := m.Hits + m.Maintained
	total := served + m.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// String renders the state compactly: "ok", "ok generation=3 tail=17", or
// "degraded generation=3 tail=17: <cause>", each followed by a
// " matview entries=… hit-rate=… backlog=…" segment when materialization is
// enabled and by the StorageStats segment on the paged engine.
func (h Health) String() string {
	var s string
	switch {
	case !h.Durable:
		s = "ok"
	case h.Degraded:
		s = fmt.Sprintf("degraded generation=%d tail=%d: %v", h.Generation, h.TailRecords, h.Cause)
	default:
		s = fmt.Sprintf("ok generation=%d tail=%d", h.Generation, h.TailRecords)
	}
	if h.MatViews.Enabled {
		s += fmt.Sprintf(" matview entries=%d hit-rate=%.0f%% backlog=%d",
			h.MatViews.Entries, 100*h.MatViews.HitRate(), h.MatViews.Backlog)
	}
	if h.Storage.Enabled {
		s += " " + h.Storage.String()
	}
	return s
}

// Health reports whether the database is fully operational or degraded to
// read-only, the I/O failure that degraded it, the current checkpoint
// generation, and the materialized-view cache state. It is safe to call
// concurrently with reads and writes.
func (d *DB) Health() Health {
	var h Health
	if d.views != nil {
		s := d.views.Snapshot()
		h.MatViews = MatViewStats{
			Enabled:       true,
			Entries:       s.Entries,
			Hits:          s.Hits,
			Misses:        s.Misses,
			Maintained:    s.Maintained,
			Invalidations: s.Invalidations,
			Backlog:       s.Backlog,
		}
	}
	if d.wal == nil {
		return h
	}
	st := d.pager.Stats()
	h.Storage = StorageStats{
		Enabled:               true,
		PoolPages:             st.PoolPages,
		PoolUsed:              st.PoolUsed,
		Hits:                  st.Hits,
		Misses:                st.Misses,
		Evictions:             st.Evictions,
		WriteBacks:            st.WriteBacks,
		Overflows:             st.Overflows,
		DirtyPages:            st.DirtyPages,
		HeapSlots:             st.HeapSlots,
		ResidentRelations:     st.ResidentRelations,
		MaterializedEvictions: st.MaterializedEvictions,
		Materializations:      st.Materializations,
		KeyIndexBuilds:        st.KeyIndexBuilds,
		LastCheckpointPages:   st.LastCheckpointPages,
		LastCheckpointBytes:   st.LastCheckpointBytes,
		Err:                   st.LastErr,
	}
	h.Durable = true
	h.Generation = d.wal.Generation()
	h.TailRecords = d.wal.TailRecords()
	if cause := d.wal.Err(); cause != nil {
		h.Degraded = true
		h.Cause = cause
	}
	return h
}

// noteMutErr maps a failed mutation on a database whose write-ahead log has
// been poisoned onto the exported degraded-mode surface: the caller gets a
// *DegradedError (matching errors.Is(err, ErrReadOnly)) wrapping the
// poisoning I/O failure. Failures with a healthy log — key conflicts, guard
// violations, ErrClosed after Close — pass through untouched. The very
// first failing write and every one after it report the same way, so
// callers need exactly one branch.
func (d *DB) noteMutErr(err error) error {
	if err == nil || d.wal == nil {
		return err
	}
	if cause := d.wal.Err(); cause != nil {
		return &DegradedError{Cause: cause}
	}
	return err
}

// Close syncs and closes a durable database's write-ahead log; mutations
// after Close fail with ErrClosed, while queries keep answering from the
// in-memory state. It is a no-op (and returns nil) for a memory-only
// database. Close does not cut a checkpoint; the log tail replays on the
// next Open.
//
// Closing a degraded database does not report success: Close returns a
// *DegradedError carrying the poisoning failure, so an unconditional
// `defer db.Close()` still surfaces the data-loss cause somewhere.
func (d *DB) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.noteMutErr(d.wal.Close())
	// The heap file needs no flush of its own: every committed mutation is in
	// the log, and dirty pages re-flush at the next checkpoint after reopen.
	if cerr := d.pager.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// ExecToContext compiles and runs a DBPL module with streaming SHOW output
// and cancellation. Whole modules are serialized against each other;
// concurrent queries keep running against their snapshots while the module's
// statements execute, picking up each assignment as it is published.
//
// The module compiles into a scratch copy of the declarations, published only
// if it compiles: a rejected module leaves the database as it was, so the
// corrected text can be executed next.
func (d *DB) ExecToContext(ctx context.Context, out io.Writer, src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return wrapErr(err)
	}
	d.execMu.Lock()
	defer d.execMu.Unlock()

	// Compile and publish under the write lock, so a concurrent Declare is
	// not lost and no query observes a half-compiled module.
	d.mu.Lock()
	chk, reg := d.decls.checker.Clone(d.Store.Type), d.decls.registry.Clone()
	p, err := compile.CompileModuleInto(m, chk, reg)
	if err == nil {
		err = d.noteMutErr(compile.DeclareVars(chk, d.Store))
	}
	if err != nil {
		d.mu.Unlock()
		return wrapErr(err)
	}
	d.LastProgram = p
	d.publish(chk, reg)
	d.mu.Unlock()

	// Statements run outside the declaration lock: writes go through the
	// store's own synchronization, so queries proceed in parallel. Statement
	// failures on a database whose log has been poisoned surface as
	// degraded-mode errors (the module's earlier statements that logged
	// successfully stay published — statements are individually atomic).
	return wrapErr(d.noteMutErr(d.runStmts(ctx, out, m.Stmts, nil)))
}

// runStmts is the statement loop behind DB.Exec (tx nil: statements write
// through the store) and Tx.Exec (they write into the transaction and record
// their guards for its commit-time re-check). Every statement evaluates its
// parsed form in a fresh environment, so it sees its predecessors' writes.
func (d *DB) runStmts(ctx context.Context, out io.Writer, stmts []ast.Stmt, tx *Tx) error {
	_, st, _ := d.current()
	var view relView
	var w compile.Assigner = st
	if tx != nil {
		view, w = tx.tx, tx.tx
	}
	for i, s := range stmts {
		env, en, err := d.newEval(ctx, view)
		if err != nil {
			return fmt.Errorf("statement %d (%s): %w", i+1, s, err)
		}
		target, guards, err := compile.RunStmt(env, w, out, s)
		d.recordStats(en)
		if err != nil {
			return fmt.Errorf("statement %d (%s): %w", i+1, s, err)
		}
		if tx != nil && target != "" {
			// Assignment replaces the value wholesale, so this statement's
			// guards supersede any recorded by an earlier assignment to the
			// same target (an unguarded assignment clears them) — matching
			// the non-transactional semantics, where each assignment is
			// checked independently.
			tx.guards[target] = guards
		}
	}
	return nil
}

// declSnapshot is the accumulated declarations as one immutable value: the
// checker and registry every executed module was compiled into, plus what the
// evaluator and the optimizer derive from them. Evaluation environments share
// its maps by reference.
type declSnapshot struct {
	checker  *typecheck.Checker
	registry *core.Registry
	// selectors is checker.Selectors reduced to the declarations, the form
	// eval.Env takes; recursive is the set of constructors on cycles of the
	// application graph, for the optimizer pass pipeline.
	selectors map[string]*ast.SelectorDecl
	recursive map[string]bool
}

// publish installs chk and reg — clones nothing else references — as the
// declaration snapshot. Cached plans resolved against the old declarations
// and cached fixpoints were computed under them, so both are dropped before
// the lock is released: no query sees new declarations with a stale plan.
// Caller holds d.mu (or is still single-threaded in Open).
func (d *DB) publish(chk *typecheck.Checker, reg *core.Registry) {
	selectors := make(map[string]*ast.SelectorDecl, len(chk.Selectors))
	for name, sig := range chk.Selectors {
		selectors[name] = sig.Decl
	}
	// The published checker resolves no relation variable: every use binds it
	// to the store it checks against (Clone, Over).
	chk.Vars, chk.VarType = nil, nil
	d.decls = &declSnapshot{
		checker:   chk,
		registry:  reg,
		selectors: selectors,
		recursive: optimizer.RecursiveFromSigs(chk.Constructors),
	}
	d.plans.clear()
	d.views.Reset()
}

// checker returns the published declarations as a checker over the relation
// variables of the current store — the one source of their types, whether a
// module, Declare, recovery, LoadStore or the replication stream declared
// them.
func (d *DB) checker() (*typecheck.Checker, *declSnapshot) {
	decls, st, _ := d.current()
	return decls.checker.Over(st.Type), decls
}

// relView is the relation-variable state an evaluation binds: the store's
// published values, or a transaction's Begin snapshot plus its own writes.
type relView interface {
	Snapshot() (map[string]*relation.Relation, error)
}

// newEval builds the private environment and engine of one evaluation; it is
// the only place either is configured, except that execWith points a
// restricted statement's engine at the statement's registry, without the
// view cache. The environment binds the published declarations and a
// snapshot of view (nil: the store's current state), and is independent of
// the DB once this returns, so evaluation holds no DB lock and writers cannot
// disturb it.
//
// The only failure is the snapshot's: a variable the storage engine could not
// read, reported as that error rather than as a missing relation.
func (d *DB) newEval(ctx context.Context, view relView) (*eval.Env, *core.Engine, error) {
	decls, st, mode := d.current()
	env := eval.NewEnv()
	env.Ctx = ctx
	env.ScanSelectors = d.noOptimize
	env.Selectors = decls.selectors
	if view == nil {
		view = st
	}
	var err error
	if env.Rels, err = view.Snapshot(); err != nil {
		return nil, nil, err
	}
	en := core.NewEngine(decls.registry, env)
	en.Mode = mode
	en.Parallelism = d.parallelism
	if d.views != nil { // a nil *matview.Cache must not become a non-nil interface
		en.Views = d.views
	}
	return env, en, nil
}

// ApplyContext evaluates a constructor application on an explicit base
// relation with cancellation. Arguments may be *Relation, Value, string,
// int, or int64.
func (d *DB) ApplyContext(ctx context.Context, constructor string, base *Relation, args ...any) (*Relation, error) {
	resolved := make([]eval.Resolved, len(args))
	for i, a := range args {
		if rel, ok := a.(*Relation); ok {
			resolved[i] = eval.Resolved{Rel: rel}
			continue
		}
		v, err := value.FromGo(a)
		if err != nil {
			return nil, err
		}
		resolved[i] = eval.Resolved{Scalar: v, IsScalar: true}
	}
	_, en, err := d.newEval(ctx, nil)
	if err != nil {
		return nil, err
	}
	out, err := en.ApplyContext(ctx, constructor, base, resolved)
	if err != nil {
		return nil, wrapErr(err)
	}
	d.recordStats(en)
	return out, nil
}

// LoadStore replaces the database's relation variables with those read from
// r, a Save image (declarations executed via Exec are kept). Relations that
// existed only in the replaced store stop resolving in queries. On a durable
// database the image is imported into its pages and checkpointed as the new
// recovery base; if either fails, the previous variables stay.
func (d *DB) LoadStore(r io.Reader) error {
	var db *store.Database
	var err error
	if d.pager == nil {
		if db, err = store.Load(r); err != nil {
			return err
		}
	}
	d.execMu.Lock()
	defer d.execMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pager != nil {
		// The old store stays write-locked throughout, so a mutation in
		// flight on it logs before the replacement checkpoint supersedes
		// its record, and none lands in the engine mid-import. The
		// checkpoint's rename is the commit point: before it, the previous
		// generation and the detached pages are intact.
		err = d.Store.Retire(func() error {
			done := d.pager.Replace()
			var err error
			if db, err = store.LoadInto(r, d.pager); err == nil {
				err = db.AdoptLogger(d.wal)
			}
			done(err == nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("dbpl: replacing the durable store: %w", d.noteMutErr(err))
		}
	}
	d.Store = db
	// Cached plans were checked against the replaced store's variables, and
	// cached fixpoints were computed over its relations: drop the plans, and
	// re-point the view cache at the new store, which drops every entry and
	// re-registers the commit observer there.
	d.plans.clear()
	if d.views != nil {
		d.views.Attach(db)
	}
	return nil
}
