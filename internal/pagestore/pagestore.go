// Package pagestore is the storage engine of every durable database, behind
// the store.Engine interface: relation tuples live in fixed-size heap pages
// in a single pages.heap file, resident pages share a buffer pool with
// pin/unpin and clock eviction, and checkpoints are incremental — only dirty
// pages are flushed, and the snapshot file the WAL rotates in is a small page
// manifest instead of a full logical image, so checkpoint cost is O(changed
// pages), not O(database).
//
// # Shadow paging and the checkpoint protocol
//
// The committed manifest (the one a crash would recover from) pins a set of
// heap slots. A page whose slot is pinned is never overwritten in place:
// flushing it allocates a fresh slot and the old one is retired only after
// the next manifest commits (wal.Options.OnCheckpoint → CheckpointCommitted).
// Flushes to unpinned slots are in-place. A checkpoint therefore writes: the
// dirty pages (to free or fresh slots), one heap fsync, then the manifest —
// which the WAL renames into place as its snapshot. A crash at any point
// leaves the previous manifest's slots untouched, so recovery is always the
// committed generation plus the WAL tail.
//
// # Residency and the key index
//
// Get decodes a relation from its pages into a relation.Relation (a
// materialization) and keeps it resident under an LRU budget of decoded
// bytes (Config.ResidentBytes); a value dropped from the budget is decoded
// again by the next Get. With unbounded residency (ResidentBytes < 0, a
// durable database without WithBufferPoolPages) nothing is ever dropped, and
// the pool holds a frame only while it is dirty: a frame a checkpoint or an
// eviction has written back, or one a materialization has decoded, is
// released, since the decoded value already holds what it would duplicate.
//
// Grow — the check half of an Insert — grows a resident value in memory as
// on the memory engine, and makes a non-resident value that fits the budget
// resident first, as Get would: it is decoded once and later Inserts cost
// O(batch). Only a relation whose decoded value alone exceeds the budget —
// keeping it resident would evict every other value — is grown without being
// decoded: its batch is checked against a key index (a hash of each stored
// key's encoding → the ordinal of the page holding it; see keyindex.go) and
// appended to the tail page, leaving it non-resident and the resident values
// in place. The engine keeps one key index at most, for
// its most recent such target, built by one key-only pass over that table's
// pages and never persisted; it is dropped when the table gets a resident
// value, on LoadManifest and on Close.
//
// # Failure model
//
// The engine never poisons and never loses logical state: every committed
// value is reachable from the WAL, and the engine's own copy is page frames
// plus materialized relations in memory. A heap write failure leaves the
// frame dirty and resident (the pool overflows its budget rather than drop
// data), a heap read failure fails that materialization — or that Grow, so
// the Insert fails before anything is logged — and is retried on the next
// access, and a checkpoint failure is a clean, retryable checkpoint failure
// at the WAL layer. Stats().LastErr surfaces the most recent fault for health
// reporting; unlike the WAL's poison it is informational.
//
// All file I/O goes through fsx.FS, so the crash-simulation harness sweeps
// the engine's fault points exactly as it does the WAL's.
package pagestore

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fsx"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

const (
	// DefaultPageSize is the heap slot size in bytes.
	DefaultPageSize = 4096
	// DefaultPoolPages is the buffer-pool budget in slots (16 MiB at the
	// default page size).
	DefaultPoolPages = 4096
	// DefaultResidentFactor scales the materialized-relation residency
	// budget off the pool size: decoded relations may occupy up to this
	// many times the pool's bytes before cold ones are dropped.
	DefaultResidentFactor = 8

	heapName        = "pages.heap"
	manifestMagic   = "DBPLPMAN"
	manifestVersion = 1
)

// ErrClosed reports an operation on a closed engine.
var ErrClosed = errors.New("pagestore: engine closed")

// Config configures Open.
type Config struct {
	// FS is the filesystem the heap file lives on; nil means the real one.
	FS fsx.FS
	// PageSize is the heap slot size; 0 means DefaultPageSize. It is fixed
	// at database creation — reopening with a different size fails.
	PageSize int
	// PoolPages is the buffer-pool budget in slots; 0 means
	// DefaultPoolPages.
	PoolPages int
	// ResidentBytes bounds the decoded (materialized) relations kept
	// resident; least recently used are dropped beyond it. 0 means
	// DefaultResidentFactor times the pool's byte budget; negative means
	// unlimited, and then the pool keeps only dirty frames.
	ResidentBytes int64
}

// table is one relation variable's paged representation.
type table struct {
	name   string
	typ    schema.RelationType
	pages  []*page
	tuples int
	bytes  int64 // encoded payload bytes across pages (excluding headers)
	// cached is the materialized published value, nil while evicted from
	// the residency budget. Pointer-stable between publications, so the
	// store's pointer-identity invariants hold.
	cached *relation.Relation
	// elem is the residency-LRU node while cached is non-nil.
	elem *list.Element
	// resCost is the residency charge taken when cached was installed.
	resCost int64
}

// decodedCost is the residency charge of t's value: its encoded payload
// bytes, plus one so that an empty value is charged too.
func (t *table) decodedCost() int64 { return t.bytes + 1 }

// Engine is the paged storage engine. It implements store.Engine and
// store.CheckpointWriter. Unlike the memory engine it takes its own lock:
// reads fault pages in and touch pool and residency state, so db.mu's read
// lock alone is not enough.
type Engine struct {
	dir      string
	fs       fsx.FS
	pageSize int

	mu     sync.Mutex
	file   fsx.File
	closed bool
	rels   map[string]*table
	pool   pool
	// nSlots is the heap file's slot count (allocated high-water mark).
	nSlots int64
	// committed pins the slots referenced by the last committed manifest;
	// pending pins the slots of a manifest written but not yet renamed
	// durable. Neither may be overwritten nor reallocated.
	committed map[int64]bool
	pending   map[int64]bool
	// free holds reusable slots: inside [0, nSlots), unreferenced by any
	// page, unpinned by committed/pending. Rebuilt at each manifest commit.
	free []int64
	// unsynced reports heap writes since the last successful heap fsync.
	unsynced bool
	// scratch is appendTupleLocked's encoding buffer.
	scratch []byte

	// Residency of materialized relations.
	lru      *list.List // of *table, front = most recent
	resBytes int64
	resCap   int64

	// kidx is the key index of the most recent cold-insert target (a table
	// too large for the residency budget), nil if none (see keyindex.go);
	// seed keys its hashes.
	kidx *keyIndex
	seed maphash.Seed

	lastErr          error
	matEvictions     uint64
	materializations uint64
	keyIndexBuilds   uint64
	lastCkptPages    uint64
	lastCkptBytes    uint64
}

// Open opens (or creates) the paged engine over dir/pages.heap. Page
// contents are recovered lazily from the manifest the WAL loads via
// LoadManifest; a fresh directory starts empty.
func Open(dir string, cfg Config) (*Engine, error) {
	fs := cfg.FS
	if fs == nil {
		fs = fsx.OsFS{}
	}
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 2*pageHeaderLen {
		return nil, fmt.Errorf("pagestore: page size %d too small", pageSize)
	}
	poolPages := cfg.PoolPages
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	resCap := cfg.ResidentBytes
	if resCap == 0 {
		resCap = int64(DefaultResidentFactor) * int64(poolPages) * int64(pageSize)
	}
	if err := fs.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(filepath.Join(dir, heapName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	// Best-effort: the WAL's directory fsync at session open covers the
	// heap's dirent too (it is created first).
	_ = fs.SyncDir(dir)
	e := &Engine{
		dir:       dir,
		fs:        fs,
		pageSize:  pageSize,
		file:      f,
		rels:      make(map[string]*table),
		pool:      pool{capSlots: poolPages},
		nSlots:    size / int64(pageSize),
		committed: make(map[int64]bool),
		lru:       list.New(),
		resCap:    resCap,
		seed:      maphash.MakeSeed(),
	}
	return e, nil
}

// Close releases the heap file. Resident materialized relations keep
// answering reads; anything cold becomes unreachable until reopen.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.kidx = nil
	return e.file.Close()
}

// Declare implements store.Engine.
func (e *Engine) Declare(name string, typ schema.RelationType) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &table{name: name, typ: typ}
	e.rels[name] = t
	e.setCachedLocked(t, relation.New(typ))
}

// Type implements store.Engine.
func (e *Engine) Type(name string) (schema.RelationType, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok {
		return schema.RelationType{}, false
	}
	return t.typ, true
}

// Names implements store.Engine.
func (e *Engine) Names() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.rels))
	for n := range e.rels {
		out = append(out, n)
	}
	return out
}

// Current implements store.Engine: pointer-identity reverse lookup over the
// resident materializations. A reader may still hold the pointer of a value
// the residency budget has since dropped, and it may still be the variable's
// current value; but it is no longer discoverable here, so the lookup
// declines rather than materialize. Declining is always safe — it costs the
// caller an optimization, never a wrong answer.
func (e *Engine) Current(rel *relation.Relation) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for n, t := range e.rels {
		if t.cached != nil && t.cached == rel {
			return n, true
		}
	}
	return "", false
}

// Cached implements store.Engine.
func (e *Engine) Cached(name string) (*relation.Relation, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok || t.cached == nil {
		return nil, false
	}
	return t.cached, true
}

// Get implements store.Engine: the resident materialization if there is one,
// otherwise the relation decoded from its pages through the buffer pool.
func (e *Engine) Get(name string) (*relation.Relation, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok {
		return nil, false, nil
	}
	rel, err := e.valueLocked(t)
	if err != nil {
		return nil, false, err
	}
	return rel, true, nil
}

// valueLocked returns t's resident value, materializing it from its pages
// into the residency budget when it is not resident.
func (e *Engine) valueLocked(t *table) (*relation.Relation, error) {
	if t.cached != nil {
		e.lru.MoveToFront(t.elem)
		return t.cached, nil
	}
	rel, err := e.materializeLocked(t)
	e.releaseCleanLocked()
	if err != nil {
		e.lastErr = err
		return nil, err
	}
	e.materializations++
	e.setCachedLocked(t, rel)
	return rel, nil
}

// Grow implements store.Engine. A value the residency budget can hold is
// made resident as by Get — decoded once if need be, so later Inserts into
// it cost O(batch) — and grows as on the memory engine (store.GrowValue);
// next is the grown value. A table whose decoded value alone exceeds the
// budget, and so would evict every other resident value to stay resident
// itself, is checked against its key index without being decoded and stays
// non-resident: next is nil, and PublishDelta appends to the tail page.
func (e *Engine) Grow(name string, tuples []value.Tuple) ([]value.Tuple, *relation.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok {
		return nil, nil, fmt.Errorf("pagestore: insert into undeclared variable %q", name)
	}
	if t.cached != nil || e.resCap < 0 || t.decodedCost() <= e.resCap {
		cur, err := e.valueLocked(t)
		if err != nil {
			return nil, nil, err
		}
		return store.GrowValue(cur, tuples)
	}
	added, err := e.growColdLocked(t, tuples)
	return added, nil, err
}

// Publish implements store.Engine: wholesale replacement rewrites the
// relation's pages.
func (e *Engine) Publish(name string, rel *relation.Relation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok {
		return
	}
	e.dropPagesLocked(t)
	rel.Each(func(tup value.Tuple) bool {
		e.appendTupleLocked(t, tup)
		return true
	})
	e.setCachedLocked(t, rel)
}

// PublishDelta implements store.Engine: growth appends only the new tuples'
// pages — the reason Insert-heavy workloads stay O(delta) on disk as well as
// in memory. With a nil next (Grow's answer for a non-resident table) the
// table stays non-resident and its key index follows the append.
func (e *Engine) PublishDelta(name string, tuples []value.Tuple, next *relation.Relation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.rels[name]
	if !ok {
		return
	}
	if next == nil {
		e.appendColdLocked(t, tuples)
		return
	}
	for _, tup := range tuples {
		e.appendTupleLocked(t, tup)
	}
	e.setCachedLocked(t, next)
}

// ---------------------------------------------------------------------------
// Page faulting, appending, eviction
// ---------------------------------------------------------------------------

// frameLocked returns the page's resident frame, faulting it in from the
// heap file (evicting under pool pressure) on a miss.
func (e *Engine) frameLocked(p *page) (*frame, error) {
	if p.frame != nil {
		e.pool.hits++
		p.frame.ref = true
		return p.frame, nil
	}
	e.pool.misses++
	if e.closed {
		return nil, ErrClosed
	}
	e.ensureRoomLocked(p.nslots)
	capBytes := p.bytes
	if e.pageSize > capBytes {
		capBytes = e.pageSize
	}
	data := make([]byte, p.bytes, capBytes)
	if _, err := e.file.Seek(p.slot*int64(e.pageSize), io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(e.file, data); err != nil {
		return nil, err
	}
	if err := checkHeader(data, p.tuples); err != nil {
		return nil, err
	}
	f := &frame{p: p, data: data, ref: true}
	p.frame = f
	e.pool.add(f)
	return f, nil
}

// releaseCleanLocked drops every clean, unpinned frame from the pool when
// residency is unbounded: each table's value is then decoded and resident
// for good, so a clean frame would only hold its bytes twice.
func (e *Engine) releaseCleanLocked() {
	if e.resCap >= 0 {
		return
	}
	bp := &e.pool
	kept := bp.frames[:0]
	for _, f := range bp.frames {
		if f.dirty || f.pins > 0 {
			kept = append(kept, f)
			continue
		}
		bp.usedSlots -= f.p.nslots
		f.p.frame = nil
	}
	clear(bp.frames[len(kept):])
	bp.frames, bp.hand = kept, 0
}

// ensureRoomLocked evicts unpinned frames until n more slots fit the pool
// budget. When nothing is evictable — everything pinned, or write-back
// failing against a faulted disk — the pool overflows instead of losing
// data.
func (e *Engine) ensureRoomLocked(n int) {
	var skip map[*frame]bool
	for e.pool.usedSlots+n > e.pool.capSlots {
		v := e.pool.victim(skip)
		if v == nil {
			e.pool.overflows++
			return
		}
		if v.dirty {
			if err := e.flushFrameLocked(v.p); err != nil {
				e.lastErr = err
				if skip == nil {
					skip = make(map[*frame]bool)
				}
				skip[v] = true
				continue
			}
		}
		e.pool.remove(v)
		e.pool.evictions++
	}
}

// flushFrameLocked writes a dirty frame's payload to the heap file. Slots
// pinned by the committed or pending manifest are never overwritten: the
// page moves to a fresh slot (shadow paging) and the old run is retired. The
// write is not fsynced here — checkpoint syncs the heap once before the
// manifest.
func (e *Engine) flushFrameLocked(p *page) error {
	f := p.frame
	if p.slot < 0 || e.protectedRunLocked(p.slot, p.nslots) {
		old, oldN := p.slot, p.nslots
		p.slot = e.allocRunLocked(p.nslots)
		if old >= 0 {
			e.releaseRunLocked(old, oldN)
		}
	}
	sealHeader(f.data, p.tuples)
	if e.closed {
		return ErrClosed
	}
	if _, err := e.file.Seek(p.slot*int64(e.pageSize), io.SeekStart); err != nil {
		return err
	}
	if _, err := e.file.Write(f.data); err != nil {
		return err
	}
	e.unsynced = true
	f.dirty = false
	e.pool.writeBacks++
	return nil
}

// protectedRunLocked reports whether any slot of the run is pinned by the
// committed or pending manifest.
func (e *Engine) protectedRunLocked(slot int64, n int) bool {
	for s := slot; s < slot+int64(n); s++ {
		if e.committed[s] || e.pending[s] {
			return true
		}
	}
	return false
}

// allocRunLocked hands out n consecutive free slots. Single slots come from
// the free list; runs (jumbo pages, rare) always extend the heap — the free
// list is not defragmented.
func (e *Engine) allocRunLocked(n int) int64 {
	if n == 1 {
		for len(e.free) > 0 {
			s := e.free[len(e.free)-1]
			e.free = e.free[:len(e.free)-1]
			if !e.protectedRunLocked(s, 1) {
				return s
			}
		}
	}
	s := e.nSlots
	e.nSlots += int64(n)
	return s
}

// releaseRunLocked returns a superseded run's unpinned slots to the free
// list; pinned ones stay off it until the next manifest commit rebuilds the
// list.
func (e *Engine) releaseRunLocked(slot int64, n int) {
	for s := slot; s < slot+int64(n); s++ {
		if !e.committed[s] && !e.pending[s] {
			e.free = append(e.free, s)
		}
	}
}

// appendTupleLocked encodes one tuple onto the relation's tail page, through
// the engine's scratch buffer.
func (e *Engine) appendTupleLocked(t *table, tup value.Tuple) {
	enc, err := appendTuple(e.scratch[:0], tup)
	if err != nil {
		// Unencodable values cannot reach a typed relation; record and drop.
		e.lastErr = err
		return
	}
	e.scratch = enc
	e.appendEncodedLocked(t, enc)
}

// appendEncodedLocked appends one encoded tuple to the relation's tail page,
// starting a fresh page when the tail is full (or its committed image cannot
// be read back — the old page stays sealed on disk and the fresh page simply
// follows it), and returns the ordinal of the page it landed on.
func (e *Engine) appendEncodedLocked(t *table, enc []byte) int {
	var p *page
	if n := len(t.pages); n > 0 {
		last := t.pages[n-1]
		if last.bytes+len(enc) <= e.pageSize {
			if _, ferr := e.frameLocked(last); ferr == nil {
				p = last
			} else {
				e.lastErr = ferr
			}
		}
	}
	if p == nil {
		nslots := 1
		if pageHeaderLen+len(enc) > e.pageSize {
			nslots = (pageHeaderLen + len(enc) + e.pageSize - 1) / e.pageSize
		}
		e.ensureRoomLocked(nslots)
		capBytes := e.pageSize
		if pageHeaderLen+len(enc) > capBytes {
			capBytes = pageHeaderLen + len(enc)
		}
		p = &page{slot: -1, nslots: nslots, bytes: pageHeaderLen}
		f := &frame{p: p, data: make([]byte, pageHeaderLen, capBytes), ref: true}
		p.frame = f
		e.pool.add(f)
		t.pages = append(t.pages, p)
	}
	f := p.frame
	f.pins++
	f.data = append(f.data[:p.bytes], enc...)
	p.bytes += len(enc)
	p.tuples++
	f.dirty = true
	f.ref = true
	f.pins--
	t.bytes += int64(len(enc))
	t.tuples++
	return len(t.pages) - 1
}

// materializeLocked decodes a relation from its pages through the pool.
func (e *Engine) materializeLocked(t *table) (*relation.Relation, error) {
	rel := relation.New(t.typ)
	arity := t.typ.Element.Arity()
	for _, p := range t.pages {
		f, err := e.frameLocked(p)
		if err != nil {
			return nil, fmt.Errorf("pagestore: materializing %q: %w", t.name, err)
		}
		// Pin across the decode: faulting in a later page of the same
		// relation may evict, and the victim must never be the page whose
		// bytes are being read.
		f.pins++
		cur := byteCursor{buf: f.data[pageHeaderLen:p.bytes]}
		for i := 0; i < p.tuples; i++ {
			tup, terr := cur.readTuple(arity)
			if terr == nil {
				terr = rel.Insert(tup)
			}
			if terr != nil {
				f.pins--
				return nil, fmt.Errorf("pagestore: materializing %q: %w", t.name, terr)
			}
		}
		f.pins--
	}
	return rel, nil
}

// dropPagesLocked discards a relation's pages (wholesale replacement):
// frames leave the pool, unpinned slots return to the free list.
func (e *Engine) dropPagesLocked(t *table) {
	for _, p := range t.pages {
		if p.frame != nil {
			e.pool.remove(p.frame)
		}
		if p.slot >= 0 {
			e.releaseRunLocked(p.slot, p.nslots)
		}
	}
	t.pages = nil
	t.bytes = 0
	t.tuples = 0
}

// setCachedLocked installs a relation's materialization and enforces the
// residency budget, dropping cold materializations (their pages stay on
// disk; indexes memoized on a dropped value are freed with it). A resident
// table needs no key index, so one held for t goes.
func (e *Engine) setCachedLocked(t *table, rel *relation.Relation) {
	if e.kidx != nil && e.kidx.t == t {
		e.kidx = nil
	}
	if t.elem != nil {
		e.resBytes -= t.resCost
		e.lru.MoveToFront(t.elem)
	} else {
		t.elem = e.lru.PushFront(t)
	}
	t.cached = rel
	t.resCost = t.decodedCost()
	e.resBytes += t.resCost
	if e.resCap < 0 {
		return
	}
	for e.resBytes > e.resCap {
		back := e.lru.Back()
		if back == nil || back.Value.(*table) == t {
			break
		}
		e.dropCachedLocked(back.Value.(*table))
	}
}

// dropCachedLocked evicts one materialization from residency.
func (e *Engine) dropCachedLocked(t *table) {
	t.cached = nil
	e.lru.Remove(t.elem)
	t.elem = nil
	e.resBytes -= t.resCost
	e.matEvictions++
}

// Replace empties the engine for a wholesale replacement of its variables (a
// LoadStore imports the new ones next) and returns done, which settles it:
// done(true) once the replacement's checkpoint has committed drops the
// detached variables, done(false) drops the replacement and reattaches them.
// Until then the detached pages keep their frames and slots, so an abandoned
// replacement loses nothing.
func (e *Engine) Replace() (done func(commit bool)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.rels
	e.rels = make(map[string]*table)
	e.kidx = nil
	return func(commit bool) {
		e.mu.Lock()
		defer e.mu.Unlock()
		drop := old
		if !commit {
			drop, e.rels = e.rels, old
		}
		for _, t := range drop {
			e.dropPagesLocked(t)
			if t.elem != nil {
				e.dropCachedLocked(t)
			}
		}
		// The dropped pages' slots are free unless a manifest pins them.
		e.rebuildFreeLocked()
		e.kidx = nil
	}
}

// ---------------------------------------------------------------------------
// Checkpoints: dirty-page flush plus manifest
// ---------------------------------------------------------------------------

// WriteCheckpoint implements store.CheckpointWriter: flush the dirty pages,
// fsync the heap once, then write the page manifest to w (the WAL's snapshot
// temp file, which it fsyncs and renames — the rename is the commit point).
// Any failure here is a clean, retryable checkpoint failure: the previous
// manifest and its slots are untouched. With unbounded residency the flushed
// frames leave the pool.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	var pages, bytes uint64
	for _, t := range e.rels {
		for _, p := range t.pages {
			if p.frame != nil && p.frame.dirty {
				if err := e.flushFrameLocked(p); err != nil {
					e.lastErr = err
					return err
				}
				pages++
				bytes += uint64(p.bytes)
			}
		}
	}
	if e.unsynced {
		if err := e.file.Sync(); err != nil {
			e.lastErr = err
			return err
		}
		e.unsynced = false
	}
	cw := &countWriter{w: w}
	if err := e.writeManifestLocked(cw); err != nil {
		return err
	}
	// Pin every slot the manifest references until CheckpointCommitted
	// resolves whether this manifest or the previous one is the recovery
	// base.
	pending := make(map[int64]bool)
	for _, t := range e.rels {
		for _, p := range t.pages {
			for s := p.slot; s < p.slot+int64(p.nslots); s++ {
				pending[s] = true
			}
		}
	}
	e.pending = pending
	e.lastCkptPages = pages
	e.lastCkptBytes = bytes + uint64(cw.n)
	e.releaseCleanLocked()
	return nil
}

// CheckpointCommitted is wired to wal.Options.OnCheckpoint: the manifest
// written by the last WriteCheckpoint is now the durable recovery base, so
// its slot set replaces the committed pin set and everything unreferenced
// becomes reusable.
func (e *Engine) CheckpointCommitted(uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pending != nil {
		e.committed = e.pending
		e.pending = nil
	}
	e.rebuildFreeLocked()
}

// rebuildFreeLocked recomputes the free list: slots below the high-water
// mark that no page references and no manifest pins.
func (e *Engine) rebuildFreeLocked() {
	live := make(map[int64]bool)
	for _, t := range e.rels {
		for _, p := range t.pages {
			if p.slot < 0 {
				continue
			}
			for s := p.slot; s < p.slot+int64(p.nslots); s++ {
				live[s] = true
			}
		}
	}
	e.free = e.free[:0]
	for s := int64(0); s < e.nSlots; s++ {
		if !live[s] && !e.committed[s] && !e.pending[s] {
			e.free = append(e.free, s)
		}
	}
}

// writeManifestLocked serializes the page manifest: per relation its type
// and the (slot, run, bytes, tuples) of each page, in page order.
func (e *Engine) writeManifestLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(manifestMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(manifestVersion); err != nil {
		return err
	}
	if err := store.WriteUvarint(bw, uint64(e.pageSize)); err != nil {
		return err
	}
	if err := store.WriteUvarint(bw, uint64(len(e.rels))); err != nil {
		return err
	}
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sortStrings(names)
	for _, name := range names {
		t := e.rels[name]
		if err := store.WriteString(bw, name); err != nil {
			return err
		}
		if err := store.WriteRelationType(bw, t.typ); err != nil {
			return err
		}
		if err := store.WriteUvarint(bw, uint64(len(t.pages))); err != nil {
			return err
		}
		for _, p := range t.pages {
			if err := store.WriteUvarint(bw, uint64(p.slot)); err != nil {
				return err
			}
			if err := store.WriteUvarint(bw, uint64(p.nslots)); err != nil {
				return err
			}
			if err := store.WriteUvarint(bw, uint64(p.bytes)); err != nil {
				return err
			}
			if err := store.WriteUvarint(bw, uint64(p.tuples)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load installs the newest snapshot of a durable database's directory, a page
// manifest, as the engine's state and returns the store over it
// (wal.Options.LoadSnapshot). It loads as LoadManifest does, so it refuses a
// store.Save image, the snapshot format written before every durable
// database checkpointed pages.
func (e *Engine) Load(r io.Reader) (*store.Database, error) {
	if err := e.LoadManifest(r); err != nil {
		return nil, err
	}
	return store.NewDatabaseWith(e), nil
}

// LoadManifest rebuilds the engine's table and slot state from a committed
// manifest. Page contents stay on disk and fault in lazily. It fails loudly
// on a Save image and on a page-size mismatch.
func (e *Engine) LoadManifest(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	br := bufio.NewReader(r)
	head := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return err
	}
	if string(head) != manifestMagic {
		if string(head) == "DBPLSTOR" {
			return fmt.Errorf("pagestore: a Save image, the memory engine's format, not a page manifest (import it with DB.LoadStore)")
		}
		return fmt.Errorf("pagestore: not a page manifest")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return err
	}
	if ver != manifestVersion {
		return fmt.Errorf("pagestore: unsupported manifest version %d", ver)
	}
	ps, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if int(ps) != e.pageSize {
		return fmt.Errorf("pagestore: database has page size %d, engine configured with %d", ps, e.pageSize)
	}
	nRels, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nRels > 1<<20 {
		return fmt.Errorf("pagestore: corrupt relation count %d", nRels)
	}
	rels := make(map[string]*table, nRels)
	committed := make(map[int64]bool)
	maxSlot := e.nSlots
	for i := uint64(0); i < nRels; i++ {
		name, err := store.ReadString(br)
		if err != nil {
			return err
		}
		typ, err := store.ReadRelationType(br)
		if err != nil {
			return err
		}
		nPages, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if nPages > 1<<32 {
			return fmt.Errorf("pagestore: corrupt page count %d", nPages)
		}
		t := &table{name: name, typ: typ}
		for j := uint64(0); j < nPages; j++ {
			var u [4]uint64
			for k := range u {
				if u[k], err = binary.ReadUvarint(br); err != nil {
					return err
				}
			}
			p := &page{slot: int64(u[0]), nslots: int(u[1]), bytes: int(u[2]), tuples: int(u[3])}
			if p.nslots < 1 || p.bytes < pageHeaderLen || p.bytes > p.nslots*e.pageSize {
				return fmt.Errorf("pagestore: corrupt page descriptor for %q", name)
			}
			for s := p.slot; s < p.slot+int64(p.nslots); s++ {
				committed[s] = true
			}
			if end := p.slot + int64(p.nslots); end > maxSlot {
				maxSlot = end
			}
			t.pages = append(t.pages, p)
			t.tuples += p.tuples
			t.bytes += int64(p.bytes - pageHeaderLen)
		}
		rels[name] = t
	}
	e.rels = rels
	e.kidx = nil
	e.committed = committed
	e.pending = nil
	e.nSlots = maxSlot
	e.rebuildFreeLocked()
	return nil
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

// Stats is a point-in-time snapshot of the engine's pool, residency, and
// checkpoint counters.
type Stats struct {
	PoolPages int
	// PoolUsed is the resident frame footprint in slots; it can exceed
	// PoolPages while nothing is evictable (see Overflows).
	PoolUsed   int
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Overflows  uint64
	// DirtyPages is the number of resident frames awaiting write-back — the
	// incremental cost of the next checkpoint.
	DirtyPages int
	// Tuples is the number of tuples stored across all relations' pages.
	Tuples int
	// ResidentRelations and MaterializedEvictions describe the decoded-
	// relation residency cache; Materializations counts whole-relation
	// decodes from pages, KeyIndexBuilds the key-only page passes that let
	// an insert into a non-resident relation skip one.
	ResidentRelations     int
	MaterializedEvictions uint64
	Materializations      uint64
	KeyIndexBuilds        uint64
	HeapSlots             int64
	LastCheckpointPages   uint64
	LastCheckpointBytes   uint64
	LastErr               error
}

// Stats returns current counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	dirty := 0
	for _, f := range e.pool.frames {
		if f.dirty {
			dirty++
		}
	}
	tuples := 0
	for _, t := range e.rels {
		tuples += t.tuples
	}
	return Stats{
		PoolPages:             e.pool.capSlots,
		PoolUsed:              e.pool.usedSlots,
		Hits:                  e.pool.hits,
		Misses:                e.pool.misses,
		Evictions:             e.pool.evictions,
		WriteBacks:            e.pool.writeBacks,
		Overflows:             e.pool.overflows,
		DirtyPages:            dirty,
		Tuples:                tuples,
		ResidentRelations:     e.lru.Len(),
		MaterializedEvictions: e.matEvictions,
		Materializations:      e.materializations,
		KeyIndexBuilds:        e.keyIndexBuilds,
		HeapSlots:             e.nSlots,
		LastCheckpointPages:   e.lastCkptPages,
		LastCheckpointBytes:   e.lastCkptBytes,
		LastErr:               e.lastErr,
	}
}

// countWriter counts bytes on their way to w (checkpoint size accounting).
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// sortStrings is sort.Strings without importing sort for one call site.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
