// Package matview is a materialized derived-relation cache with incremental
// (delta) maintenance. It memoizes converged constructor fixpoints — the
// derived relations of section 3 — keyed by (constructor, base variable,
// scalar arguments), together with the grounded equation system and its full
// per-equation state, and keeps them current as base relations change:
//
//   - Committed writes to an entry's base variable arrive through the store's
//     Observer choke point — the same publication point the WAL Logger and
//     replication subscriptions use — and are queued on the entry: Insert
//     growth (and insert-only Tx commits) as tuple deltas, an Assign or a Tx
//     write that replaces or shrinks the value as an overwrite link. The next
//     read absorbs the queue as one signed delta (+added, −removed) — the
//     queued tuples, or for an overwrite the diff of the new value against
//     the converged base — and resumes the fixpoint from the cached state
//     (core.System.Resume: semi-naive for growth, delete-and-rederive for
//     removals) instead of refixpointing, so maintenance costs what the delta
//     derives, not the size of the derived relation.
//
//   - Everything else — fresh declarations, changes to any other relation
//     the constructor's bodies read (the entry's dependency set), writes with
//     no published value (a paged Insert appended without decoding),
//     non-monotone or non-positive systems — invalidates: the entry dies and
//     the next read recomputes from scratch and reinstalls.
//
// Published relations are immutable (writers publish fresh pointers), so a
// pointer is a sound identity for a base state. Each entry remembers the base
// pointer its state converged for plus the chain of queued deltas with the
// pointer each one produced; a reader is served when its snapshot's base
// pointer is the converged one (hit — including readers whose snapshot
// predates queued deltas, which see exactly the state they asked for) or on
// the chain (maintain through the prefix). Maintenance never mutates state a
// reader may hold: resumption is copy-on-write throughout.
//
// Maintenance errors (cancellation, iteration bounds) evict the entry so a
// failed resume can never leave a stale result servable; the error is
// reported to the failing read and the next read recomputes fully.
package matview

import (
	"container/list"
	"context"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/value"
)

// maxPendingTuples caps an entry's queued delta backlog. A write stream with
// no intervening reads would otherwise queue without bound; past the cap the
// entry is invalidated — a full recompute is cheaper than maintaining a huge
// backlog, and the cap bounds the cache's memory liability.
const maxPendingTuples = 8192

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Entries is the number of live cached systems.
	Entries int
	// Hits, Misses, and Maintained count reads served unchanged, reads that
	// computed and installed, and reads that absorbed queued deltas.
	Hits, Misses, Maintained uint64
	// Invalidations counts entries killed by writes they cannot absorb,
	// dependency changes, maintenance failures, backlog overflow, and LRU
	// eviction.
	Invalidations uint64
	// Backlog is the total number of delta tuples queued but not yet applied.
	Backlog int
}

// delta is one queued write: the published relation pointer it produced and,
// for growth, the tuples that pointer added to the previous one. An overwrite
// carries no tuples: what it changed is the difference between next and the
// base the entry has converged for when a read absorbs it.
type delta struct {
	tuples []value.Tuple
	next   *relation.Relation
}

func (d delta) overwrite() bool { return d.tuples == nil }

// entry is one cached constructor application.
type entry struct {
	key     string
	baseVar string
	// deps maps every global relation name the system may read to its
	// grounding-time value; any change to one kills the entry.
	deps map[string]*relation.Relation
	// deltaSafe marks entries whose base writes are delta-expressible: the
	// system is resumable and does not also read the base variable by name
	// (through a selector body, say), which a per-occurrence delta join
	// cannot see.
	deltaSafe bool

	// compute serializes maintenance and state access per entry. It is never
	// held while taking the cache lock... except it is: compute -> cache.mu
	// is the one permitted nesting (cache.mu sections are pure bookkeeping
	// and never take compute or any store lock).
	compute sync.Mutex
	// sys and state are guarded by compute.
	sys   *core.System
	state []*relation.Relation

	// The fields below are guarded by Cache.mu.
	basePtr    *relation.Relation
	pending    []delta
	pendTuples int
	dead       bool
	lruEl      *list.Element
}

// Cache is the materialized-view cache. It implements core.ViewProvider (the
// read path) and store.Observer (the write path). The zero of *Cache (nil)
// is a valid disabled cache: every method is a no-op and Apply declines.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	// byName indexes live entries by base variable and dependency names, so
	// the observer touches only affected entries while holding the store's
	// write lock.
	byName map[string]map[*entry]struct{}
	st     *store.Database

	hits, misses, maintained, invalidations uint64
	backlog                                 int
}

// New returns a cache holding at most max entries (LRU beyond that).
func New(max int) *Cache {
	if max <= 0 {
		return nil
	}
	return &Cache{
		max:     max,
		entries: make(map[string]*entry),
		lru:     list.New(),
		byName:  make(map[string]map[*entry]struct{}),
	}
}

// Attach points the cache at a store and registers it as the store's commit
// observer, clearing any state cached over a previous store. The session
// calls it at Open and again whenever LoadStore swaps the store.
func (c *Cache) Attach(st *store.Database) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.st = st
	c.clearLocked()
	c.mu.Unlock()
	st.SetObserver(c)
}

// Reset drops every cached entry (module execution changed declarations, a
// store was swapped in, or a test wants a cold cache).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.clearLocked()
	c.mu.Unlock()
}

func (c *Cache) clearLocked() {
	for _, e := range c.entries {
		e.dead = true
	}
	c.entries = make(map[string]*entry)
	c.byName = make(map[string]map[*entry]struct{})
	c.lru.Init()
	c.backlog = 0
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Maintained:    c.maintained,
		Invalidations: c.invalidations,
		Backlog:       c.backlog,
	}
}

// entryKey builds the cache identity: constructor, base variable, and scalar
// argument values. Relation-valued arguments have no stable cheap identity,
// so applications carrying one are never cached (Apply declines first).
func entryKey(cons, baseVar string, args []eval.Resolved) string {
	var b strings.Builder
	b.WriteString(cons)
	b.WriteByte(0)
	b.WriteString(baseVar)
	for _, a := range args {
		b.WriteString("\x00s")
		b.WriteString(value.Tuple{a.Scalar}.Key())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Read path: core.ViewProvider
// ---------------------------------------------------------------------------

// Apply serves a constructor application from the cache, computing and
// installing on a miss. It declines (ok false) when the application is not
// cacheable: a relation-valued argument, or a base that is not a currently
// published variable value (transaction overlays, intermediate derived
// relations). The declined application is computed by the engine directly
// and no counter moves — the cache only accounts for reads it could serve.
func (c *Cache) Apply(ctx context.Context, en *core.Engine, name string, base *relation.Relation, args []eval.Resolved) (*relation.Relation, bool, error) {
	if c == nil {
		return nil, false, nil
	}
	for _, a := range args {
		if !a.IsScalar {
			return nil, false, nil
		}
	}
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	if st == nil {
		return nil, false, nil
	}
	varName, published := st.NameOf(base)
	if !published {
		// A pointer that is not the current published value: a reader whose
		// snapshot predates later writes. Serve it only if an entry still
		// remembers the pointer (converged for it, or on its delta chain) —
		// the cached state is exactly the answer for that snapshot. Never
		// compute-and-install under a superseded base.
		if e := c.findByPtr(name, base, args, false); e != nil {
			rel, served, err := c.serve(ctx, en, e, base)
			if err != nil {
				return nil, true, err
			}
			if served {
				return rel, true, nil
			}
		}
		return nil, false, nil
	}
	key := entryKey(name, varName, args)

	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e != nil {
		rel, served, err := c.serve(ctx, en, e, base)
		if err != nil {
			return nil, true, err
		}
		if served {
			return rel, true, nil
		}
		// Stale, forked, or invalidated mid-flight: recompute and replace.
	}

	sys, err := en.Ground(ctx, name, base, args)
	if err != nil {
		return nil, true, err
	}
	state, _, err := sys.Solve(ctx)
	if err != nil {
		return nil, true, err
	}
	root := sys.Root(state)
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	en.NoteView(core.ViewStats{Outcome: "miss"})
	c.install(st, sys, key, varName, base, state)
	return root, true, nil
}

// Peek reports whether Apply would serve the zero-argument application name
// over base from a materialized entry at the cost of its queued growth —
// base is the entry's converged pointer or on its delta chain before any
// overwrite link — without computing anything or moving a counter. Restricted
// evaluation strategies use it: a magic-sets plan, say, prefers its
// constant-seeded system over computing the full fixpoint, but a full
// fixpoint already paid for and kept current beats both. An overwrite costs a
// diff of the whole base and a delete-and-rederive, more than a restricted
// plan: Peek leaves it to the next unrestricted read.
func (c *Cache) Peek(name string, base *relation.Relation) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	if st == nil {
		return false
	}
	varName, published := st.NameOf(base)
	if !published {
		return c.findByPtr(name, base, nil, true) != nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[entryKey(name, varName, nil)]
	return e != nil && e.remembers(base, true)
}

// findByPtr locates the entry that remembers base (see remembers), for
// readers whose base is no longer published. The scan is bounded by the cache
// capacity.
func (c *Cache) findByPtr(cons string, base *relation.Relation, args []eval.Resolved, growthOnly bool) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.key == entryKey(cons, e.baseVar, args) && e.remembers(base, growthOnly) {
			return e
		}
	}
	return nil
}

// remembers reports whether base is e's converged pointer or on its queued
// delta chain — with growthOnly, on the part before the first overwrite
// link. Caller holds Cache.mu.
func (e *entry) remembers(base *relation.Relation, growthOnly bool) bool {
	if e.basePtr == base {
		return true
	}
	for _, d := range e.pending {
		if growthOnly && d.overwrite() {
			return false
		}
		if d.next == base {
			return true
		}
	}
	return false
}

// serve answers a read from an existing entry: a hit when the reader's base
// pointer is the converged one, a maintain when it is on the queued delta
// chain, a decline otherwise. A maintenance failure evicts the entry and
// returns the error — the entry must never stay servable after a failed
// resume.
func (c *Cache) serve(ctx context.Context, en *core.Engine, e *entry, base *relation.Relation) (*relation.Relation, bool, error) {
	e.compute.Lock()
	defer e.compute.Unlock()

	c.mu.Lock()
	dead := e.dead
	basePtr := e.basePtr
	pending := e.pending
	if !dead {
		c.lru.MoveToFront(e.lruEl)
	}
	c.mu.Unlock()
	if dead {
		return nil, false, nil
	}
	if base == basePtr {
		// Queued deltas, if any, postdate this reader's snapshot: the cached
		// state is exactly the answer for it.
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		en.NoteView(core.ViewStats{Outcome: "hit"})
		return e.sys.Root(e.state), true, nil
	}
	consumed := -1
	for i := range pending {
		if pending[i].next == base {
			consumed = i
			break
		}
	}
	if consumed < 0 {
		// A base pointer the entry has never seen (an older snapshot than the
		// converged state, or the entry lagged a write it missed): decline.
		return nil, false, nil
	}
	applied, overwrite := 0, false
	for _, d := range pending[:consumed+1] {
		applied += len(d.tuples)
		overwrite = overwrite || d.overwrite()
	}
	added, removed := relation.New(base.Type()), relation.New(base.Type())
	if overwrite {
		// The diff subsumes every link: it is exactly what base changed.
		added, removed = base.Difference(basePtr), basePtr.Difference(base)
		if added.Len()+removed.Len() > maxPendingTuples {
			// Past the backlog cap a recompute is cheaper (see CommittedGrow).
			c.kill(e)
			return nil, false, nil
		}
	} else {
		for _, d := range pending[:consumed+1] {
			for _, t := range d.tuples {
				if err := added.Insert(t); err != nil {
					// Tuples that cannot coexist in one relation cannot all be
					// in base; the queue is corrupt — invalidate and recompute.
					c.kill(e)
					return nil, false, nil
				}
			}
		}
	}
	newState, fstats, err := e.sys.Resume(ctx, en, e.state, base, added, removed)
	if err != nil {
		c.kill(e)
		return nil, false, err
	}
	e.state = newState
	c.mu.Lock()
	if !e.dead {
		e.basePtr = base
		// An overwrite committed meanwhile replaced the chain (its diff is
		// taken against the new basePtr); otherwise drop what was consumed.
		if len(e.pending) > consumed && e.pending[consumed].next == base {
			e.pending = e.pending[consumed+1:]
			e.pendTuples -= applied
			c.backlog -= applied
		}
		c.maintained++
	}
	c.mu.Unlock()
	en.NoteView(core.ViewStats{Outcome: "maintained", Delta: added.Len(), Removed: removed.Len(), Rounds: fstats.Rounds})
	return e.sys.Root(newState), true, nil
}

// install caches a freshly solved system, verifying under the store's read
// lock that the base and every dependency still hold the exact pointers the
// computation saw — a write that landed between the query's snapshot and now
// would otherwise leave a stale entry the observer never saw. The write lock
// excluded during verification is the one every observer callback runs
// under, so verify-and-install is atomic with respect to invalidation.
func (c *Cache) install(st *store.Database, sys *core.System, key, varName string, base *relation.Relation, state []*relation.Relation) {
	deps := sys.DepValues()
	_, selfDep := deps[varName]
	e := &entry{
		key:       key,
		baseVar:   varName,
		deps:      deps,
		deltaSafe: sys.Resumable() && !selfDep,
		sys:       sys,
		state:     state,
		basePtr:   base,
	}
	sys.Detach()
	st.ReadLocked(func(get func(string) (*relation.Relation, bool)) {
		if cur, ok := get(varName); !ok || cur != base {
			return
		}
		for dn, dv := range deps {
			cur, ok := get(dn)
			if !ok {
				if dv != nil {
					return
				}
				continue
			}
			if cur != dv {
				return
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if old := c.entries[key]; old != nil {
			c.killLocked(old)
		}
		c.entries[key] = e
		e.lruEl = c.lru.PushFront(e)
		c.indexLocked(e)
		for c.lru.Len() > c.max {
			victim := c.lru.Back().Value.(*entry)
			c.killLocked(victim)
			c.invalidations++
		}
	})
}

// indexLocked registers the entry under its base variable and dependency
// names. Caller holds c.mu.
func (c *Cache) indexLocked(e *entry) {
	add := func(name string) {
		set := c.byName[name]
		if set == nil {
			set = make(map[*entry]struct{})
			c.byName[name] = set
		}
		set[e] = struct{}{}
	}
	add(e.baseVar)
	for dn := range e.deps {
		add(dn)
	}
}

// killLocked marks an entry dead and unlinks it. Caller holds c.mu.
func (c *Cache) killLocked(e *entry) {
	if e.dead {
		return
	}
	e.dead = true
	delete(c.entries, e.key)
	if e.lruEl != nil {
		c.lru.Remove(e.lruEl)
		e.lruEl = nil
	}
	drop := func(name string) {
		if set := c.byName[name]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(c.byName, name)
			}
		}
	}
	drop(e.baseVar)
	for dn := range e.deps {
		drop(dn)
	}
	c.backlog -= e.pendTuples
	e.pendTuples = 0
	e.pending = nil
}

// kill invalidates one entry (maintenance failure, corrupt queue).
func (c *Cache) kill(e *entry) {
	c.mu.Lock()
	if !e.dead {
		c.killLocked(e)
		c.invalidations++
	}
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Write path: store.Observer
// ---------------------------------------------------------------------------

// CommittedGrow implements store.Observer: queue the delta on entries whose
// base variable grew and can absorb it; invalidate entries that merely read
// the variable, and delta-unsafe entries.
func (c *Cache) CommittedGrow(name string, tuples []value.Tuple, next *relation.Relation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := range c.byName[name] {
		if e.dead {
			continue
		}
		if name == e.baseVar && e.deltaSafe && e.pendTuples+len(tuples) <= maxPendingTuples {
			e.pending = append(e.pending, delta{tuples: tuples, next: next})
			e.pendTuples += len(tuples)
			c.backlog += len(tuples)
			continue
		}
		c.killLocked(e)
		c.invalidations++
	}
}

// CommittedReset implements store.Observer: an overwrite of a delta-safe
// entry's base variable with a published value replaces the entry's queue
// with one overwrite link — the next read diffs it against the converged base,
// which subsumes every earlier link, so a write burst keeps at most two base
// values alive. Every other entry that reads the variable, and every entry on
// a write with no published value (next nil), is invalidated.
func (c *Cache) CommittedReset(name string, next *relation.Relation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := range c.byName[name] {
		if e.dead {
			continue
		}
		if name == e.baseVar && e.deltaSafe && next != nil {
			// A fresh slice: a concurrent serve may be reading the old one.
			e.pending = []delta{{next: next}}
			c.backlog -= e.pendTuples
			e.pendTuples = 0
			continue
		}
		c.killLocked(e)
		c.invalidations++
	}
}
