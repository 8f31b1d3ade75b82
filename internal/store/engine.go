package store

// The storage-engine split: Database owns semantics (checked assignment,
// write-ahead logging, subscriptions, observers, transactions) and delegates
// the physical binding of variable names to relation values to a pluggable
// Engine. The memory engine below keeps everything resident and has no
// durable format: it backs databases without a path and replicas. Every
// durable database runs on internal/pagestore, which implements the same
// contract over heap-file pages behind a buffer pool and checkpoints through
// CheckpointWriter.

import (
	"io"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Engine is a pluggable storage backend for the Database's variable
// bindings. The Database owns all synchronization: every Engine method is
// called with db.mu held (write-held for Declare/Grow/Publish/PublishDelta,
// at least read-held for the rest), so a purely in-memory implementation
// needs no internal locking, while an implementation that mutates internal
// state on reads (a buffer pool faulting pages in) must add its own.
//
// Published relation values remain immutable under every engine: Publish and
// PublishDelta with a value install a fresh pointer and the engine must hand
// exactly that pointer back from Get until the next publication, so
// pointer-identity invariants (a Tx commit's growth classification, the
// matview Observer, NameOf) keep holding. An engine may drop a resident value
// at any time (residency eviction) without telling the Database: hash indexes
// are memoized on the relation value itself, so they are freed with it and
// rebuilt on the value a later Get materializes.
//
// The owner of an engine that holds resources (the paged engine's heap file)
// closes it through its concrete type; the Database never does.
type Engine interface {
	// Declare creates a variable of the given type bound to an empty
	// relation. The Database has already validated the type and rejected
	// duplicates.
	Declare(name string, typ schema.RelationType)
	// Get returns the current published value of a variable, faulting it in
	// from secondary storage if necessary. An error reports an I/O or
	// corruption failure (never "not declared"); ok reports declaration.
	Get(name string) (*relation.Relation, bool, error)
	// Cached returns the variable's published value only if it is resident
	// in memory right now — no I/O. Used where the pointer is wanted
	// opportunistically (classifying a Tx write as a delta, counting memoized
	// indexes) and a miss is acceptable.
	Cached(name string) (*relation.Relation, bool)
	// Type returns the declared type of a variable.
	Type(name string) (schema.RelationType, bool)
	// Names returns the declared variable names in no particular order.
	Names() []string
	// Current returns the variable whose current published value is rel
	// (pointer identity), without materializing anything.
	Current(rel *relation.Relation) (string, bool)
	// Grow checks tuples for insertion into a declared variable's current
	// value and publishes nothing: the element domain, then the key
	// constraint with Relation.Insert's semantics — an equal tuple is a
	// no-op, a different tuple with the same key a *relation.KeyConflictError
	// naming the stored (or earlier batch) tuple. The check is
	// all-or-nothing: on the first violation it returns that error and no
	// tuples. added is the batch minus the tuples already present or
	// repeated, in batch order. next is the current value grown by added
	// when the engine holds the current value in memory, nil when it does
	// not (a paged variable too large for the residency budget is checked
	// against its pages instead of being decoded). An I/O failure during the
	// check fails Grow before anything is logged.
	Grow(name string, tuples []value.Tuple) (added []value.Tuple, next *relation.Relation, err error)
	// Publish replaces a variable's value wholesale (Assign, Tx overwrite).
	// It must not fail logically: the mutation is already logged. An engine
	// that hits an I/O failure keeps the state in memory and surfaces the
	// problem through its own health reporting.
	Publish(name string, rel *relation.Relation)
	// PublishDelta publishes growth: tuples are new to the variable, and
	// next is exactly the previous published value plus tuples, so an engine
	// can append rather than rewrite. A nil next (what Grow returned for a
	// value it does not hold) appends without a value to hand back: the next
	// Get materializes one.
	PublishDelta(name string, tuples []value.Tuple, next *relation.Relation)
}

// CheckpointWriter is implemented by engines that can back a logged
// Database: the paged engine writes a page manifest and flushes only dirty
// pages, making checkpoint cost O(dirty), not O(database). The Database
// routes WAL checkpoint state through it, and only through it; logical
// snapshots for replication (Subscribe) always use Save.
type CheckpointWriter interface {
	WriteCheckpoint(w io.Writer) error
}

// memEngine is the fully resident engine: two maps, exactly the storage the
// Database embedded before the split. No internal locking — db.mu covers it.
type memEngine struct {
	vars map[string]*relation.Relation
	typs map[string]schema.RelationType
}

// NewMemoryEngine returns the fully resident storage engine (the default
// without a path).
func NewMemoryEngine() Engine {
	return &memEngine{
		vars: make(map[string]*relation.Relation),
		typs: make(map[string]schema.RelationType),
	}
}

func (e *memEngine) Declare(name string, typ schema.RelationType) {
	e.vars[name] = relation.New(typ)
	e.typs[name] = typ
}

func (e *memEngine) Get(name string) (*relation.Relation, bool, error) {
	r, ok := e.vars[name]
	return r, ok, nil
}

func (e *memEngine) Cached(name string) (*relation.Relation, bool) {
	r, ok := e.vars[name]
	return r, ok
}

func (e *memEngine) Type(name string) (schema.RelationType, bool) {
	t, ok := e.typs[name]
	return t, ok
}

func (e *memEngine) Names() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	return out
}

func (e *memEngine) Current(rel *relation.Relation) (string, bool) {
	for n, r := range e.vars {
		if r == rel {
			return n, true
		}
	}
	return "", false
}

func (e *memEngine) Grow(name string, tuples []value.Tuple) ([]value.Tuple, *relation.Relation, error) {
	return GrowValue(e.vars[name], tuples)
}

// GrowValue is Engine.Grow over a value held in memory: a copy-on-write clone
// of cur (O(1): sealed chunks shared by prefix) grown by Relation.InsertAll.
// Every engine grows a resident value this way.
func GrowValue(cur *relation.Relation, tuples []value.Tuple) ([]value.Tuple, *relation.Relation, error) {
	next := cur.Clone()
	added, err := next.InsertAll(tuples...)
	if err != nil {
		return nil, nil, err
	}
	return added, next, nil
}

func (e *memEngine) Publish(name string, rel *relation.Relation) {
	e.vars[name] = rel
}

func (e *memEngine) PublishDelta(name string, tuples []value.Tuple, next *relation.Relation) {
	e.vars[name] = next
}
