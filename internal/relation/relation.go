// Package relation implements the keyed tuple sets at the heart of the DBPL
// data model (section 2.2 of the paper), together with the set algebra that
// the fixpoint machinery of section 3 is built from: union, difference,
// equality (the REPEAT ... UNTIL Ahead = Oldahead convergence test),
// projection, selection, and hash-indexed join support.
//
// A Relation enforces its type's key constraint on every insertion, which is
// exactly the run-time test the paper derives for assignments:
//
//	IF ALL x1,x2 IN rex (x1.key=x2.key ==> x1=x2) THEN rel := rex ELSE <exception>
package relation

import (
	"fmt"
	"io"
	"iter"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/value"
)

// KeyConflictError reports a violated key constraint: two distinct tuples
// sharing a key value.
type KeyConflictError struct {
	Relation string
	Existing value.Tuple
	Incoming value.Tuple
}

// Error implements error.
func (e *KeyConflictError) Error() string {
	return fmt.Sprintf("relation %s: key conflict between %s and %s",
		e.Relation, e.Existing, e.Incoming)
}

// layer is one frozen map pair captured from a cloned relation: a snapshot of
// the clone source's own tuples at clone time. Layers are never written
// through; the capturing relation's mutations land in its own maps, and the
// captured relation copies its maps before its next mutation (ensureOwned).
type layer struct {
	tuples map[string]value.Tuple
	whole  map[string]struct{}
}

// Relation is a mutable set of tuples of a fixed relation type. The zero
// value is not usable; construct with New.
//
// A relation's content is its own maps plus the frozen under-layers captured
// from clone sources; the layers are key-disjoint, so every lookup resolves in
// the first layer holding the key. This makes Clone O(1) in the relation size
// — the copy-on-write republish cycle (store writes, resumed fixpoints) pays
// for the tuples it adds, not for the state it carries forward. Clone
// flattens when the overlay outgrows the base or the chain gets deep, bounding
// lookup cost and amortizing the flatten over many cheap clones.
type Relation struct {
	typ    schema.RelationType
	keyPos []int
	// tuples maps the key-attribute encoding of each tuple to the tuple.
	// When the key covers all attributes this is plain set semantics.
	tuples map[string]value.Tuple
	// whole maps the full-tuple encoding to struct{}; maintained only when
	// the key is a proper subset of the attributes, to make Contains exact.
	whole map[string]struct{}
	// under holds the frozen base layers, newest first, key-disjoint with the
	// own maps and each other.
	under []*layer
	// ownShared marks the own maps as captured by a clone's under chain: they
	// must be copied before the next mutation.
	ownShared bool

	// version counts content mutations; memoized indexes are valid only for
	// the version they were built at. Mutation and reads are never concurrent
	// on the same relation (writers publish fresh pointers), so the counter
	// needs no synchronization of its own.
	version uint64
	// idxMu guards idx against concurrent readers memoizing indexes on a
	// shared (published, hence unmutated) relation.
	idxMu sync.Mutex
	idx   map[string]idxEntry

	// inherited carries the clone source's memoized indexes, valid for this
	// relation's content at clone time; pending lists the tuples added since.
	// IndexOn layers pending over an inherited index instead of rebuilding
	// from scratch, so a copy-on-write republish (store writes, resumed
	// fixpoints) costs O(tuples added) rather than O(relation) on its next
	// indexed join. Deletions drop the inheritance — overlays only model
	// growth.
	inherited map[string]*Index
	pending   []value.Tuple
}

// idxEntry is one memoized index together with the relation version it
// reflects.
type idxEntry struct {
	ver uint64
	idx *Index
}

// New creates an empty relation of the given type.
func New(typ schema.RelationType) *Relation {
	r := &Relation{
		typ:    typ,
		keyPos: typ.KeyPositions(),
		tuples: make(map[string]value.Tuple),
	}
	if len(r.keyPos) != typ.Element.Arity() {
		r.whole = make(map[string]struct{})
	}
	return r
}

// FromTuples creates a relation of the given type holding the given tuples.
// It returns an error on a domain or key violation.
func FromTuples(typ schema.RelationType, tuples ...value.Tuple) (*Relation, error) {
	r := New(typ)
	for _, t := range tuples {
		if err := r.Insert(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples but panics on error; intended for tests and
// workload construction from trusted data.
func MustFromTuples(typ schema.RelationType, tuples ...value.Tuple) *Relation {
	r, err := FromTuples(typ, tuples...)
	if err != nil {
		panic(err)
	}
	return r
}

// Type returns the relation's type.
func (r *Relation) Type() schema.RelationType { return r.typ }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	n := len(r.tuples)
	for _, l := range r.under {
		n += len(l.tuples)
	}
	return n
}

// IsEmpty reports whether the relation holds no tuples.
func (r *Relation) IsEmpty() bool { return r.Len() == 0 }

// get resolves a key across the own maps and the under chain.
func (r *Relation) get(k string) (value.Tuple, bool) {
	if t, ok := r.tuples[k]; ok {
		return t, true
	}
	for _, l := range r.under {
		if t, ok := l.tuples[k]; ok {
			return t, true
		}
	}
	return nil, false
}

// ensureOwned copies the own maps if a clone captured them, so the pending
// mutation cannot reach through the clone's frozen under chain.
func (r *Relation) ensureOwned() {
	if !r.ownShared {
		return
	}
	tuples := make(map[string]value.Tuple, len(r.tuples))
	for k, t := range r.tuples {
		tuples[k] = t
	}
	r.tuples = tuples
	if r.whole != nil {
		whole := make(map[string]struct{}, len(r.whole))
		for k := range r.whole {
			whole[k] = struct{}{}
		}
		r.whole = whole
	}
	r.ownShared = false
}

// materialize folds the under chain into fresh own maps; needed before
// operations that cannot work layered (deletion of a tuple living in a frozen
// layer).
func (r *Relation) materialize() {
	if len(r.under) == 0 {
		r.ensureOwned()
		return
	}
	n := r.Len()
	tuples := make(map[string]value.Tuple, n)
	var whole map[string]struct{}
	if r.whole != nil {
		whole = make(map[string]struct{}, n)
	}
	take := func(tup map[string]value.Tuple, wh map[string]struct{}) {
		for k, t := range tup {
			tuples[k] = t
		}
		if whole != nil {
			for k := range wh {
				whole[k] = struct{}{}
			}
		}
	}
	for i := len(r.under) - 1; i >= 0; i-- {
		take(r.under[i].tuples, r.under[i].whole)
	}
	take(r.tuples, r.whole)
	r.tuples, r.whole, r.under, r.ownShared = tuples, whole, nil, false
}

func (r *Relation) keyOf(t value.Tuple) string {
	if len(r.keyPos) == len(t) {
		return t.Key()
	}
	return t.Project(r.keyPos).Key()
}

// CheckElement is the domain half of Insert's check: it returns the error
// Insert returns for a tuple outside typ's element type. A storage engine
// checking a batch against a relation it has not decoded uses it to reject
// exactly what Insert would.
func CheckElement(typ schema.RelationType, t value.Tuple) error {
	if !typ.Element.Contains(t) {
		return fmt.Errorf("relation %s: tuple %s violates element type %s",
			typ.Name, t, typ.Element)
	}
	return nil
}

// Insert adds a tuple. It is a no-op if an equal tuple is present, returns a
// *KeyConflictError if a different tuple with the same key is present, and
// checks the element type's domain predicate.
func (r *Relation) Insert(t value.Tuple) error {
	if err := CheckElement(r.typ, t); err != nil {
		return err
	}
	k := r.keyOf(t)
	if old, ok := r.get(k); ok {
		if old.Equal(t) {
			return nil
		}
		return &KeyConflictError{Relation: r.typ.Name, Existing: old, Incoming: t}
	}
	r.ensureOwned()
	r.tuples[k] = t
	if r.whole != nil {
		r.whole[t.Key()] = struct{}{}
	}
	r.version++
	r.noteAdd(t)
	return nil
}

// InsertAll inserts the tuples all-or-nothing and returns the ones it added —
// the batch minus the tuples already present (or repeated within it), in
// batch order. On the first domain or key violation the tuples this call
// already added are taken out again, so the relation holds exactly what it
// held before the call.
func (r *Relation) InsertAll(tuples ...value.Tuple) ([]value.Tuple, error) {
	added := make([]value.Tuple, 0, len(tuples))
	pending := len(r.pending)
	for _, t := range tuples {
		v := r.version
		if err := r.Insert(t); err != nil {
			if len(added) == 0 {
				return nil, err
			}
			// What this call added sits in the own maps (Insert never writes a
			// frozen layer), so the undo needs no materialization.
			for _, u := range added {
				delete(r.tuples, r.keyOf(u))
				if r.whole != nil {
					delete(r.whole, u.Key())
				}
			}
			r.version++
			if r.inherited != nil {
				r.pending = r.pending[:pending]
			}
			return nil, err
		}
		if r.version != v {
			added = append(added, t)
		}
	}
	return added, nil
}

// Add inserts a tuple and reports whether the relation grew. Unlike Insert it
// treats a key conflict as a panic; it is used by the fixpoint engine, whose
// derived relations always have whole-tuple keys.
func (r *Relation) Add(t value.Tuple) bool {
	k := r.keyOf(t)
	if old, ok := r.get(k); ok {
		if !old.Equal(t) {
			panic((&KeyConflictError{Relation: r.typ.Name, Existing: old, Incoming: t}).Error())
		}
		return false
	}
	r.ensureOwned()
	r.tuples[k] = t
	if r.whole != nil {
		r.whole[t.Key()] = struct{}{}
	}
	r.version++
	r.noteAdd(t)
	return true
}

// noteAdd records a tuple added since this relation was cloned, so IndexOn can
// overlay it onto an inherited index. When the backlog outgrows a fraction of
// the relation, the inheritance is dropped: a full rebuild is then cheaper
// than dragging a large overlay through future clones.
func (r *Relation) noteAdd(t value.Tuple) {
	if r.inherited == nil {
		return
	}
	r.pending = append(r.pending, t)
	if len(r.pending) > 1024+r.Len()/8 {
		r.inherited, r.pending = nil, nil
	}
}

// Delete removes the tuple equal to t, reporting whether it was present.
// A tuple living in a frozen under layer forces materialization first.
func (r *Relation) Delete(t value.Tuple) bool {
	k := r.keyOf(t)
	old, ok := r.get(k)
	if !ok || !old.Equal(t) {
		return false
	}
	r.materialize()
	delete(r.tuples, k)
	if r.whole != nil {
		delete(r.whole, t.Key())
	}
	r.version++
	r.inherited, r.pending = nil, nil
	return true
}

// Contains reports set membership of an exact tuple.
func (r *Relation) Contains(t value.Tuple) bool {
	k := t.Key()
	if r.whole != nil {
		if _, ok := r.whole[k]; ok {
			return true
		}
		for _, l := range r.under {
			if _, ok := l.whole[k]; ok {
				return true
			}
		}
		return false
	}
	old, ok := r.get(k)
	return ok && old.Equal(t)
}

// LookupKey returns the tuple with the given key attribute values, if any.
func (r *Relation) LookupKey(key value.Tuple) (value.Tuple, bool) {
	return r.get(key.Key())
}

// Each calls fn for every tuple in unspecified order; fn returning false
// stops the iteration.
func (r *Relation) Each(fn func(value.Tuple) bool) {
	for _, t := range r.tuples {
		if !fn(t) {
			return
		}
	}
	for _, l := range r.under {
		for _, t := range l.tuples {
			if !fn(t) {
				return
			}
		}
	}
}

// All returns a single-use iterator over the tuples in unspecified order.
// It is the pull-based counterpart of Each, used by the streaming row cursor
// of the public API so results need not be materialized into a slice.
func (r *Relation) All() iter.Seq[value.Tuple] {
	return func(yield func(value.Tuple) bool) {
		for _, t := range r.tuples {
			if !yield(t) {
				return
			}
		}
		for _, l := range r.under {
			for _, t := range l.tuples {
				if !yield(t) {
					return
				}
			}
		}
	}
}

// Slice returns all tuples in unspecified order. It is the cheap counterpart
// of Tuples for callers that partition work over the tuple set (the parallel
// executor) and do not need deterministic ordering.
func (r *Relation) Slice() []value.Tuple {
	out := make([]value.Tuple, 0, r.Len())
	r.Each(func(t value.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Keyed is a tuple carried together with its precomputed encodings: K is the
// key-attribute encoding and W the whole-tuple encoding (W is "" when the key
// covers all attributes, in which case K already encodes the whole tuple).
// Precomputing the encodings on executor workers moves the expensive part of
// an insert off the single-threaded merge path.
type Keyed struct {
	K string
	W string
	T value.Tuple
}

// KeyedOf encodes t for insertion into r (see Keyed).
func (r *Relation) KeyedOf(t value.Tuple) Keyed {
	if len(r.keyPos) == len(t) {
		return Keyed{K: t.Key(), T: t}
	}
	return Keyed{K: t.Project(r.keyPos).Key(), W: t.Key(), T: t}
}

// InsertKeyed is Insert for a tuple whose encodings were precomputed with
// KeyedOf against a relation of the same type. It does NOT re-check the
// element type's domain predicate — the executor validates tuples when it
// projects them, before handing them to the sink.
func (r *Relation) InsertKeyed(kd Keyed) error {
	if old, ok := r.get(kd.K); ok {
		if old.Equal(kd.T) {
			return nil
		}
		return &KeyConflictError{Relation: r.typ.Name, Existing: old, Incoming: kd.T}
	}
	r.ensureOwned()
	r.tuples[kd.K] = kd.T
	if r.whole != nil {
		r.whole[kd.W] = struct{}{}
	}
	r.version++
	r.noteAdd(kd.T)
	return nil
}

// ContainsKeyed is Contains for a tuple whose encodings were precomputed with
// KeyedOf against a relation of the same type.
func (r *Relation) ContainsKeyed(kd Keyed) bool {
	if r.whole != nil {
		if _, ok := r.whole[kd.W]; ok {
			return true
		}
		for _, l := range r.under {
			if _, ok := l.whole[kd.W]; ok {
				return true
			}
		}
		return false
	}
	old, ok := r.get(kd.K)
	return ok && old.Equal(kd.T)
}

// Tuples returns all tuples in deterministic (lexicographic) order.
func (r *Relation) Tuples() []value.Tuple {
	out := r.Slice()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// maxUnderDepth bounds the under chain: Clone flattens past it, so a lookup
// probes at most maxUnderDepth+1 maps and the O(relation) flatten cost is
// amortized over that many O(1) clones.
const maxUnderDepth = 32

// Clone returns a copy with value semantics (tuples are immutable; content is
// never shared mutably).
//
// The copy is O(1) in the relation size: the source's maps are captured as
// frozen under-layers, the clone's mutations land in its own fresh maps, and
// the source copies its maps before its next mutation. Clone falls back to a
// flat deep copy when the overlay chain is deep or has outgrown a quarter of
// the base layer.
//
// The clone also inherits the source's currently valid memoized indexes: its
// first IndexOn per signature overlays the tuples added since the clone
// instead of rebuilding, keeping indexed-join cost proportional to the delta
// across the copy-on-write republish cycle. A source with no valid memo of
// its own forwards its inheritance (with the pending backlog copied), so
// chains of clones between reads still resolve to one frozen base index.
func (r *Relation) Clone() *Relation {
	// Small relations clone flat: the copy is cheap and the layered
	// bookkeeping (capture, deferred own-map copy, multi-map lookups) would
	// cost more than it saves.
	const minLayeredClone = 1024
	base := len(r.tuples)
	if n := len(r.under); n > 0 {
		base = len(r.under[n-1].tuples)
	}
	var c *Relation
	if base < minLayeredClone || len(r.under) >= maxUnderDepth || r.Len()-base > base/4 {
		c = r.flatClone()
	} else {
		c = &Relation{typ: r.typ, keyPos: r.keyPos,
			tuples: make(map[string]value.Tuple)}
		if r.whole != nil {
			c.whole = make(map[string]struct{})
		}
		if len(r.tuples) > 0 || len(r.under) == 0 {
			c.under = make([]*layer, 0, len(r.under)+1)
			c.under = append(c.under, &layer{tuples: r.tuples, whole: r.whole})
			c.under = append(c.under, r.under...)
		} else {
			c.under = append([]*layer(nil), r.under...)
		}
	}
	r.idxMu.Lock()
	if len(c.under) > 0 && len(c.tuples) == 0 {
		// The own maps were captured above; idxMu serializes the flag write
		// against another goroutine cloning this published relation.
		r.ownShared = true
	}
	for sig, e := range r.idx {
		if e.ver != r.version {
			continue
		}
		if c.inherited == nil {
			c.inherited = make(map[string]*Index, len(r.idx))
		}
		c.inherited[sig] = e.idx
	}
	r.idxMu.Unlock()
	if c.inherited == nil && r.inherited != nil {
		c.inherited = r.inherited
		c.pending = append([]value.Tuple(nil), r.pending...)
	}
	return c
}

// flatClone is the layered-representation-free deep copy.
func (r *Relation) flatClone() *Relation {
	n := r.Len()
	c := &Relation{typ: r.typ, keyPos: r.keyPos,
		tuples: make(map[string]value.Tuple, n)}
	if r.whole != nil {
		c.whole = make(map[string]struct{}, n)
	}
	take := func(tup map[string]value.Tuple, wh map[string]struct{}) {
		for k, t := range tup {
			c.tuples[k] = t
		}
		if c.whole != nil {
			for k := range wh {
				c.whole[k] = struct{}{}
			}
		}
	}
	take(r.tuples, r.whole)
	for _, l := range r.under {
		take(l.tuples, l.whole)
	}
	return c
}

// Equal reports set equality with another relation of positionally compatible
// type. This is the convergence test of the paper's REPEAT loops
// (UNTIL Ahead = Oldahead).
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	equal := true
	r.Each(func(t value.Tuple) bool {
		equal = o.Contains(t)
		return equal
	})
	return equal
}

// UnionInto inserts every tuple of o into r (set union in place), reporting
// how many tuples were new. Types must be positionally compatible; tuples are
// re-labelled to r's type implicitly (positional semantics, section 3.1).
func (r *Relation) UnionInto(o *Relation) int {
	grew := 0
	o.Each(func(t value.Tuple) bool {
		if r.Add(t) {
			grew++
		}
		return true
	})
	return grew
}

// Union returns a fresh relation of r's type holding r ∪ o.
func (r *Relation) Union(o *Relation) *Relation {
	out := r.Clone()
	out.UnionInto(o)
	return out
}

// Difference returns a fresh relation of r's type holding r \ o.
func (r *Relation) Difference(o *Relation) *Relation {
	out := New(r.typ)
	r.Each(func(t value.Tuple) bool {
		if !o.Contains(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Intersect returns a fresh relation of r's type holding r ∩ o.
func (r *Relation) Intersect(o *Relation) *Relation {
	out := New(r.typ)
	r.Each(func(t value.Tuple) bool {
		if o.Contains(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Select returns a fresh relation holding the tuples satisfying pred.
func (r *Relation) Select(pred func(value.Tuple) bool) *Relation {
	out := New(r.typ)
	r.Each(func(t value.Tuple) bool {
		if pred(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Project returns a fresh relation over the given attribute positions, typed
// with the supplied result type (projection may create duplicates, which set
// semantics collapses).
func (r *Relation) Project(resultType schema.RelationType, positions []int) *Relation {
	out := New(resultType)
	r.Each(func(t value.Tuple) bool {
		out.Add(t.Project(positions))
		return true
	})
	return out
}

// String renders the relation as a DBPL relation literal with tuples in
// deterministic order, e.g. {<"a","b">, <"b","c">}.
func (r *Relation) String() string {
	var b strings.Builder
	r.WriteTo(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// WriteTo streams the literal rendering of String to w tuple by tuple,
// avoiding one monolithic string for large relations (SHOW output path). It
// implements io.WriterTo.
func (r *Relation) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(s string) error {
		m, err := io.WriteString(w, s)
		n += int64(m)
		return err
	}
	if err := write("{"); err != nil {
		return n, err
	}
	for i, t := range r.Tuples() {
		if i > 0 {
			if err := write(", "); err != nil {
				return n, err
			}
		}
		if err := write(t.String()); err != nil {
			return n, err
		}
	}
	err := write("}")
	return n, err
}

// Index is a hash index over a projection of a relation's attributes, used by
// the set-oriented evaluator for equi-joins (the f.back = b.head joins of the
// ahead constructor). An index is immutable once built.
//
// An index either holds all its tuples in buckets (base nil), or is an
// overlay: buckets holds only the tuples added since the frozen base index
// was built, and probes merge both layers. Overlays are produced by IndexOn
// for cloned relations; base is always a flat index, so the layering never
// exceeds depth one.
type Index struct {
	positions []int
	buckets   map[string][]value.Tuple
	base      *Index
}

// BuildIndex indexes the relation on the given attribute positions.
func BuildIndex(r *Relation, positions []int) *Index {
	idx := &Index{positions: positions, buckets: make(map[string][]value.Tuple)}
	r.Each(func(t value.Tuple) bool {
		k := t.Project(positions).Key()
		idx.buckets[k] = append(idx.buckets[k], t)
		return true
	})
	return idx
}

// BuildIndexParallel indexes the relation on the given attribute positions
// using up to workers goroutines. The expensive per-tuple key encoding is done
// on chunk workers over disjoint slices of the relation; the merge only
// concatenates bucket slices. With workers <= 1 (or a small relation) it falls
// back to BuildIndex. The returned Index is identical in content to
// BuildIndex's (bucket ordering within a key may differ, which no caller
// observes — probes feed set-semantics sinks).
func BuildIndexParallel(r *Relation, positions []int, workers int) *Index {
	const minTuplesPerWorker = 2048
	if workers > r.Len()/minTuplesPerWorker {
		workers = r.Len() / minTuplesPerWorker
	}
	if workers <= 1 {
		return BuildIndex(r, positions)
	}
	tuples := r.Slice()
	parts := make([]map[string][]value.Tuple, workers)
	var wg sync.WaitGroup
	chunk := (len(tuples) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(tuples))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := make(map[string][]value.Tuple, hi-lo)
			for _, t := range tuples[lo:hi] {
				k := t.Project(positions).Key()
				m[k] = append(m[k], t)
			}
			parts[w] = m
		}(w, lo, hi)
	}
	wg.Wait()
	idx := &Index{positions: positions, buckets: parts[0]}
	if idx.buckets == nil {
		idx.buckets = make(map[string][]value.Tuple)
	}
	for _, m := range parts[1:] {
		for k, ts := range m {
			idx.buckets[k] = append(idx.buckets[k], ts...)
		}
	}
	return idx
}

// IndexOn returns a hash index on positions, memoizing it on the relation.
// A memoized index is reused as long as the relation's content has not
// changed since it was built, which turns the join build side from a
// per-evaluation cost into a once-per-relation-version cost — the difference
// between O(relation) and O(delta) work when a fixpoint is resumed with a
// small delta against large, unchanged relations. Relations shared between
// goroutines are published and therefore unmutated, so concurrent IndexOn
// calls are safe (the worst case is two racers building the same index and
// one winning the memo slot).
func (r *Relation) IndexOn(positions []int, workers int) *Index {
	// The signature is built without allocating: selector access paths call
	// IndexOn once per query, and the memo hit below is their common case.
	var buf [32]byte
	key := appendSig(buf[:0], positions)
	r.idxMu.Lock()
	if e, ok := r.idx[string(key)]; ok && e.ver == r.version {
		r.idxMu.Unlock()
		return e.idx
	}
	sig := string(key)
	ver := r.version
	base := r.inherited[sig]
	pending := r.pending
	r.idxMu.Unlock()
	var idx *Index
	if base != nil {
		idx = overlayIndex(base, pending, positions, r.Len()/4)
	}
	if idx == nil {
		idx = BuildIndexParallel(r, positions, workers)
	}
	r.idxMu.Lock()
	if r.idx == nil {
		r.idx = make(map[string]idxEntry)
	}
	r.idx[sig] = idxEntry{ver: ver, idx: idx}
	r.idxMu.Unlock()
	return idx
}

// HasIndexOn reports whether the relation already carries an index on
// positions, so that IndexOn serves it without a build: a memoized index valid
// for the current content, or an inherited one that IndexOn overlays with the
// tuples added since the clone.
func (r *Relation) HasIndexOn(positions []int) bool {
	var buf [32]byte
	key := appendSig(buf[:0], positions)
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if e, ok := r.idx[string(key)]; ok && e.ver == r.version {
		return true
	}
	base := r.inherited[string(key)]
	return base != nil && overlaySize(base, r.pending) <= r.Len()/4
}

// appendSig appends the memo signature of positions to buf.
func appendSig(buf []byte, positions []int) []byte {
	for _, p := range positions {
		buf = append(strconv.AppendInt(buf, int64(p), 10), ',')
	}
	return buf
}

// Indexes reports how many memoized indexes are valid for the relation's
// current content (for monitoring).
func (r *Relation) Indexes() int {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	n := 0
	for _, e := range r.idx {
		if e.ver == r.version {
			n++
		}
	}
	return n
}

// overlayIndex layers the tuples added since a clone over the clone source's
// index, flattening an overlay source so the result references a single
// frozen base. It declines (nil) when the accumulated overlay would exceed
// limit tuples — past that point a full rebuild is cheaper than dragging an
// ever-growing overlay through future clones.
func overlayIndex(base *Index, pending []value.Tuple, positions []int, limit int) *Index {
	if overlaySize(base, pending) > limit {
		return nil
	}
	full := base
	var prior map[string][]value.Tuple
	if base.base != nil {
		full, prior = base.base, base.buckets
	}
	buckets := make(map[string][]value.Tuple, len(prior)+len(pending))
	for k, ts := range prior {
		// Capacity-clipped alias: a later append reallocates instead of
		// writing into the source overlay's backing array.
		buckets[k] = ts[:len(ts):len(ts)]
	}
	for _, t := range pending {
		k := t.Project(positions).Key()
		buckets[k] = append(buckets[k], t)
	}
	return &Index{positions: positions, buckets: buckets, base: full}
}

// overlaySize is the number of tuples the overlay of pending on base holds:
// pending plus base's own overlay, if it is one.
func overlaySize(base *Index, pending []value.Tuple) int {
	size := len(pending)
	if base.base != nil {
		for _, ts := range base.buckets {
			size += len(ts)
		}
	}
	return size
}

// Probe returns the tuples whose indexed projection equals key.
func (idx *Index) Probe(key value.Tuple) []value.Tuple {
	var buf [64]byte
	k := key.AppendKey(buf[:0])
	own := idx.buckets[string(k)]
	if idx.base == nil {
		return own
	}
	under := idx.base.buckets[string(k)]
	if len(own) == 0 {
		return under
	}
	if len(under) == 0 {
		return own
	}
	merged := make([]value.Tuple, 0, len(under)+len(own))
	return append(append(merged, under...), own...)
}

// Len returns the number of distinct keys in the index.
func (idx *Index) Len() int {
	if idx.base == nil {
		return len(idx.buckets)
	}
	n := len(idx.base.buckets)
	for k := range idx.buckets {
		if _, ok := idx.base.buckets[k]; !ok {
			n++
		}
	}
	return n
}
