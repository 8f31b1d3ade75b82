package dbpl

import (
	"runtime"
	"time"

	"repro/internal/fsx"
	"repro/internal/wal"
)

// SyncPolicy controls when a durable database (Open with WithPath) fsyncs
// its write-ahead log.
type SyncPolicy = wal.SyncPolicy

// Sync policies for WithSync.
const (
	// SyncAlways fsyncs the log after every committed mutation (default for
	// durable databases): a commit that returns survives a machine crash.
	SyncAlways = wal.SyncAlways
	// SyncNever leaves flushing to the operating system: commits survive a
	// process crash but a machine crash may lose the most recent ones.
	SyncNever = wal.SyncNever
)

// EngineKind names a storage engine (WithEngine). The engine follows from
// WithPath: a database without a path keeps every relation in memory, and a
// durable one stores relation tuples in fixed-size heap pages in a single
// heap file and checkpoints incrementally — only pages dirtied since the last
// checkpoint are written, and the snapshot the write-ahead log rotates in is
// a small page manifest instead of a full image.
type EngineKind int

const (
	// EngineMemory is the engine of a database without a path.
	EngineMemory EngineKind = iota
	// EnginePaged is the engine of every durable database; it requires
	// WithPath.
	EnginePaged
)

// config collects the Open-time settings.
type config struct {
	mode   Mode
	strict bool
	// noOptimize disables the pass pipeline and physical access paths: every
	// query evaluates its parsed form directly and every selector scans.
	noOptimize bool
	// path, when non-empty, makes the database durable: state is recovered
	// from the directory on Open and every mutation is write-ahead logged.
	path            string
	syncPolicy      SyncPolicy
	checkpointEvery int
	ckptRetries     int
	ckptBackoff     time.Duration
	// fs overrides the filesystem the durability stack runs over; nil means
	// the real one. Test-only (withFS): fault-injection harnesses plug in
	// scriptable filesystems here.
	fs fsx.FS
	// parallelism bounds the equations a fixpoint round evaluates at once
	// (WithParallelism); defaultConfig sets it to GOMAXPROCS(0).
	parallelism int
	// noMatviews disables the materialized-view cache (every read
	// refixpoints from scratch).
	noMatviews bool
	// engine is what WithEngine asked for, checked only against a missing
	// path. poolPages is the paged engine's buffer-pool budget in pages
	// (WithBufferPoolPages); 0 means unbounded residency.
	engine    EngineKind
	poolPages int
}

// DefaultPlanCacheSize is the capacity of the LRU cache of compiled query
// plans consulted by Query/QueryContext/Explain.
const DefaultPlanCacheSize = 128

// DefaultMaterializedViews is the capacity of the materialized-view cache: up
// to this many constructor fixpoints are kept converged and maintained
// incrementally as base relations grow (least recently used beyond it).
const DefaultMaterializedViews = 64

func defaultConfig() config {
	return config{
		mode:        SemiNaive,
		strict:      true,
		parallelism: runtime.GOMAXPROCS(0),
	}
}

// Option configures a DB at Open time.
type Option func(*config)

// WithMode selects the fixpoint strategy for constructor evaluation
// (SemiNaive by default).
func WithMode(m Mode) Option {
	return func(c *config) { c.mode = m }
}

// WithStrict toggles the positivity constraint (section 3.3) on constructor
// declarations. It is on by default, as in the paper's compiler; turning it
// off admits non-monotonic constructors, evaluated naively with oscillation
// detection.
func WithStrict(strict bool) Option {
	return func(c *config) { c.strict = strict }
}

// WithPath makes the database durable, backed by the given directory
// (created if absent). Open recovers the base relations persisted there —
// the latest snapshot checkpoint plus the committed tail of the write-ahead
// log — and every subsequent state-changing operation (module DDL, Insert,
// Assign, LoadStore, and each Tx commit as one atomic batch) is logged
// before it is published. Derived constructor results are never logged; they
// recompute from the base relations.
//
// Declarations other than relation variables (types, selectors,
// constructors) live in modules, not in the store: re-execute the schema
// modules after reopening. Re-declaring a recovered variable at the same
// type is a no-op, so the original module (minus its seed statements) can be
// re-run as-is.
func WithPath(dir string) Option {
	return func(c *config) { c.path = dir }
}

// WithSync selects the fsync policy of a durable database's write-ahead log;
// it has no effect without WithPath. The default is SyncAlways.
func WithSync(p SyncPolicy) Option {
	return func(c *config) { c.syncPolicy = p }
}

// WithCheckpointEvery sets the number of log records after which a durable
// database automatically cuts a snapshot checkpoint and truncates the log
// (default wal.DefaultCheckpointEvery); negative disables automatic
// checkpoints, leaving compaction to explicit Checkpoint calls. It has no
// effect without WithPath.
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.checkpointEvery = n }
}

// WithCheckpointRetry bounds automatic retries of cleanly failed snapshot
// checkpoints on a durable database: up to n retries, backing off starting
// at backoff and doubling per attempt. Checkpoints are safe to retry because
// the snapshot rename is their commit point — a clean failure (disk full
// while writing the snapshot temp file, say) leaves the previous generation
// fully intact and the log still appendable. Failures past the commit point
// are not retried; they degrade the database to read-only instead. The
// default is no retries. It has no effect without WithPath.
func WithCheckpointRetry(n int, backoff time.Duration) Option {
	return func(c *config) {
		c.ckptRetries = n
		c.ckptBackoff = backoff
	}
}

// WithEngine names the storage engine, which WithPath already decides: every
// durable database is paged and every other one is memory-only.
// WithEngine(EnginePaged) without WithPath fails at Open.
//
// Deprecated: redundant with WithPath; omit it.
func WithEngine(k EngineKind) Option {
	return func(c *config) { c.engine = k }
}

// WithBufferPoolPages bounds a durable database's memory: n pages of 4 KiB
// in the buffer pool, and decoded relations up to
// pagestore.DefaultResidentFactor times the pool's bytes. Relations larger
// than that spill and fault pages back in on demand. Without it (or with
// n ≤ 0) residency is unbounded: every relation stays decoded, and the pool
// holds a page only until a checkpoint or an eviction writes it back. It
// has no effect without WithPath.
func WithBufferPoolPages(n int) Option {
	return func(c *config) { c.poolPages = n }
}

// withFS runs the durability stack over an alternative filesystem. Test-only:
// the crash-simulation harness injects fault-scripted in-memory filesystems
// through it.
func withFS(fs fsx.FS) Option {
	return func(c *config) { c.fs = fs }
}

// WithParallelism bounds how many equations of a fixpoint round are evaluated
// at once: a constructor application that grounds a system of more than one
// instance (the mutually recursive ahead/above of section 3.1) evaluates up to
// n of its equations concurrently per round. Everything else, including every
// query pipeline, runs on the calling goroutine. n = 1 evaluates rounds
// serially; n <= 0 or omitting the option uses runtime.GOMAXPROCS(0). Results
// are identical at every setting: a round is a barrier and relations are
// sets.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.parallelism = n
	}
}

// WithoutOptimization disables the optimizer entirely: no rewrite passes run
// at Prepare time and selector applications always scan their base relation
// instead of using physical access paths. It also disables materialized
// views, so every constructor application refixpoints from scratch. Intended
// for debugging and for equivalence testing against the optimized path.
func WithoutOptimization() Option {
	return func(c *config) {
		c.noOptimize = true
		c.noMatviews = true
	}
}

// WithoutMaterialization disables the materialized-view cache: every
// constructor application recomputes its fixpoint from scratch. Useful as a
// reference path when testing incremental maintenance.
func WithoutMaterialization() Option {
	return func(c *config) { c.noMatviews = true }
}
