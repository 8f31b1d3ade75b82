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
//
// A relation's content is a slice of key-disjoint chunks. A chunk keeps its
// tuples in a dense row slice beside a map from key encoding to row position,
// so a scan walks a slice and a lookup is one map probe. A sealed chunk is
// never written again, so relations share sealed chunks by prefix: Clone is
// O(1) in the relation size, and a copy-on-write republish (store writes,
// resumed fixpoints) pays for the tuples it adds, not for the state it carries
// forward. A memoized index lives on the sealed chunk it covers up to and is
// extended by the chunks after it, so it never goes stale.
package relation

import (
	"fmt"
	"io"
	"iter"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// chunk is one piece of a relation's content: its tuples in rows, and keys
// mapping the key-attribute encoding of each tuple to its position in rows.
// Writes append to rows; a delete moves the last row into the freed slot.
// Until it is sealed only the relation whose newest chunk it is writes it;
// once sealed it is immutable and any number of relations may share it.
type chunk struct {
	rows   []value.Tuple
	keys   map[string]int
	sealed atomic.Bool
	// mu guards idx: relations sharing the chunk memoize on it from several
	// goroutines.
	mu sync.Mutex
	// idx maps a position signature to an index over every chunk up to and
	// including this one. Only a sealed chunk carries indexes.
	idx map[string]*Index
}

func newChunk(n int) *chunk {
	return &chunk{rows: make([]value.Tuple, 0, n), keys: make(map[string]int, n)}
}

// Relation is a mutable set of tuples of a fixed relation type. The zero
// value is not usable; construct with New.
//
// Its content is its chunks, oldest first. They are key-disjoint, so a lookup
// resolves in the one chunk holding the key, and only the first may be empty.
// Every chunk but the newest is sealed; the newest is sealed too once a Clone
// shares it or an index covers it, and the next write opens a fresh chunk.
type Relation struct {
	typ    schema.RelationType
	keyPos []int
	chunks []*chunk
}

const (
	// minSharedClone is the first-chunk size below which Clone copies: the
	// copy is cheap, and lookups across several chunks would cost more than
	// sharing saves.
	minSharedClone = 1024
	// maxDepth bounds the chunk count: past it Clone and the next write
	// flatten, so a lookup probes at most maxDepth+1 maps and the O(relation)
	// flatten is amortized over that many O(1) clones.
	maxDepth = 32
)

// New creates an empty relation of the given type.
func New(typ schema.RelationType) *Relation {
	return &Relation{typ: typ, keyPos: typ.KeyPositions(), chunks: []*chunk{newChunk(0)}}
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
	n := 0
	for _, c := range r.chunks {
		n += len(c.rows)
	}
	return n
}

// IsEmpty reports whether the relation holds no tuples.
func (r *Relation) IsEmpty() bool { return r.Len() == 0 }

// get resolves a key across the chunks.
func (r *Relation) get(k string) (value.Tuple, bool) {
	for _, c := range r.chunks {
		if i, ok := c.keys[k]; ok {
			return c.rows[i], true
		}
	}
	return nil, false
}

// tail returns the chunk r's writes go to: the newest one while it is
// unsealed, else a fresh one, after flattening a relation past maxDepth. Only
// IndexOn seals a relation that deep (Clone copies it instead), so the
// flattened chunk keeps that index and is sealed like the chunk it replaces.
func (r *Relation) tail() *chunk {
	c := r.chunks[len(r.chunks)-1]
	if !c.sealed.Load() {
		return c
	}
	if len(r.chunks) > maxDepth {
		c = r.flatten(true)
		c.sealed.Store(true)
		r.chunks = []*chunk{c}
	}
	c = newChunk(0)
	r.chunks = append(r.chunks, c)
	return c
}

// flatten folds the chunks into one fresh chunk. With keep, the chunk carries
// the indexes that covered the whole content (the newest chunk's) and is
// sealed if there are any.
func (r *Relation) flatten(keep bool) *chunk {
	f := newChunk(r.Len())
	for _, c := range r.chunks {
		off := len(f.rows)
		f.rows = append(f.rows, c.rows...)
		for k, i := range c.keys {
			f.keys[k] = off + i
		}
	}
	if keep {
		c := r.chunks[len(r.chunks)-1]
		c.mu.Lock()
		f.idx = maps.Clone(c.idx)
		c.mu.Unlock()
		f.sealed.Store(len(f.idx) > 0)
	}
	return f
}

// keyOf returns the key attributes of t: t itself when the key covers every
// attribute.
func (r *Relation) keyOf(t value.Tuple) value.Tuple {
	if len(r.keyPos) == len(t) {
		return t
	}
	return t.Project(r.keyPos)
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

// put adds t under its key encoding k unless an equal tuple is present. It
// reports whether the relation grew, or the conflict with a different tuple
// holding the key.
func (r *Relation) put(k string, t value.Tuple) (bool, error) {
	if old, ok := r.get(k); ok {
		if old.Equal(t) {
			return false, nil
		}
		return false, &KeyConflictError{Relation: r.typ.Name, Existing: old, Incoming: t}
	}
	c := r.tail()
	c.keys[k] = len(c.rows)
	c.rows = append(c.rows, t)
	return true, nil
}

// Insert adds a tuple. It is a no-op if an equal tuple is present, returns a
// *KeyConflictError if a different tuple with the same key is present, and
// checks the element type's domain predicate.
func (r *Relation) Insert(t value.Tuple) error {
	if err := CheckElement(r.typ, t); err != nil {
		return err
	}
	_, err := r.put(r.keyOf(t).Key(), t)
	return err
}

// InsertAll inserts the tuples all-or-nothing and returns the ones it added —
// the batch minus the tuples already present (or repeated within it), in
// batch order. On the first domain or key violation the tuples this call
// already added are taken out again, so the relation holds exactly what it
// held before the call.
func (r *Relation) InsertAll(tuples ...value.Tuple) ([]value.Tuple, error) {
	added := make([]value.Tuple, 0, len(tuples))
	for _, t := range tuples {
		err := CheckElement(r.typ, t)
		grew := false
		if err == nil {
			grew, err = r.put(r.keyOf(t).Key(), t)
		}
		if err != nil {
			// What this call added are the last rows of the unsealed newest
			// chunk, so the undo, newest first, flattens and moves nothing.
			for i := len(added) - 1; i >= 0; i-- {
				r.Delete(added[i])
			}
			return nil, err
		}
		if grew {
			added = append(added, t)
		}
	}
	return added, nil
}

// Add inserts a tuple and reports whether the relation grew. Unlike Insert it
// treats a key conflict as a panic; it is used by the fixpoint engine, whose
// derived relations always have whole-tuple keys.
func (r *Relation) Add(t value.Tuple) bool {
	grew, err := r.put(r.keyOf(t).Key(), t)
	if err != nil {
		panic(err.Error())
	}
	return grew
}

// Delete removes the tuple equal to t, reporting whether it was present.
// Deleting a tuple that lives in a sealed chunk flattens the relation first.
func (r *Relation) Delete(t value.Tuple) bool {
	k := r.keyOf(t).Key()
	old, ok := r.get(k)
	if !ok || !old.Equal(t) {
		return false
	}
	c := r.chunks[len(r.chunks)-1]
	i, own := c.keys[k]
	if !own || c.sealed.Load() {
		c = r.flatten(false)
		r.chunks = []*chunk{c}
		i = c.keys[k]
	}
	last := len(c.rows) - 1
	if i != last {
		moved := c.rows[last]
		c.rows[i] = moved
		c.keys[r.keyOf(moved).Key()] = i
	}
	c.rows[last] = nil // the slice must not pin the deleted tuple
	c.rows = c.rows[:last]
	delete(c.keys, k)
	if len(c.rows) == 0 && len(r.chunks) > 1 {
		r.chunks = r.chunks[:len(r.chunks)-1]
	}
	return true
}

// Contains reports set membership of an exact tuple.
func (r *Relation) Contains(t value.Tuple) bool {
	old, ok := r.get(r.keyOf(t).Key())
	return ok && old.Equal(t)
}

// LookupKey returns the tuple with the given key attribute values, if any.
func (r *Relation) LookupKey(key value.Tuple) (value.Tuple, bool) {
	return r.get(key.Key())
}

// Each calls fn for every tuple in unspecified order; fn returning false
// stops the iteration. fn must not write r: a Delete moves rows, so the
// iteration could skip a tuple or see one twice.
func (r *Relation) Each(fn func(value.Tuple) bool) {
	for _, c := range r.chunks {
		for _, t := range c.rows {
			if !fn(t) {
				return
			}
		}
	}
}

// All returns an iterator over the tuples in unspecified order: the
// range-over-func form of Each, under the same rule that the loop body must
// not write r.
func (r *Relation) All() iter.Seq[value.Tuple] { return r.Each }

// Cursor is a position in a relation's rows: a chunk and a row within it.
// Unlike a pulled iterator it holds no goroutine, so a cursor that is
// dropped half-way needs no cleanup. The relation must not be written while
// the cursor is in use.
type Cursor struct {
	chunks []*chunk
	ci, ri int
}

// Cursor returns a cursor before the first tuple of r.
func (r *Relation) Cursor() Cursor { return Cursor{chunks: r.chunks} }

// Next returns the tuple at the cursor and advances it, or false once every
// tuple has been returned.
func (cur *Cursor) Next() (value.Tuple, bool) {
	for ; cur.ci < len(cur.chunks); cur.ci, cur.ri = cur.ci+1, 0 {
		if rows := cur.chunks[cur.ci].rows; cur.ri < len(rows) {
			cur.ri++
			return rows[cur.ri-1], true
		}
	}
	return nil, false
}

// Slice returns all tuples in unspecified order. It is the cheap counterpart
// of Tuples for callers that scan the tuple set by position (the executor's
// outer scan and loop joins) and do not need deterministic ordering.
func (r *Relation) Slice() []value.Tuple {
	out := make([]value.Tuple, 0, r.Len())
	for _, c := range r.chunks {
		out = append(out, c.rows...)
	}
	return out
}

// Keyed is a tuple carried together with its precomputed key encoding K.
// Encoding once lets the executor test a tuple against an exclusion set and
// then insert it into the result without encoding it twice.
type Keyed struct {
	K string
	T value.Tuple
}

// KeyedOf encodes t for insertion into r (see Keyed).
func (r *Relation) KeyedOf(t value.Tuple) Keyed {
	return Keyed{K: r.keyOf(t).Key(), T: t}
}

// InsertKeyed is Insert for a tuple whose encoding was precomputed with
// KeyedOf against a relation of the same type. It does NOT re-check the
// element type's domain predicate — the executor validates tuples when it
// projects them, before handing them to the sink.
func (r *Relation) InsertKeyed(kd Keyed) error {
	_, err := r.put(kd.K, kd.T)
	return err
}

// ContainsKeyed is Contains for a tuple whose encoding was precomputed with
// KeyedOf against a relation of the same type.
func (r *Relation) ContainsKeyed(kd Keyed) bool {
	old, ok := r.get(kd.K)
	return ok && old.Equal(kd.T)
}

// Tuples returns all tuples in deterministic (lexicographic) order.
func (r *Relation) Tuples() []value.Tuple {
	out := r.Slice()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns a copy with value semantics (tuples are immutable; content is
// never shared mutably).
//
// The copy is O(1) in the relation size: Clone seals the newest chunk and
// shares the chunk slice, so both relations' next writes open fresh chunks,
// and the indexes the shared chunks carry serve both. Clone copies instead
// when the first chunk is small, when the relation is past maxDepth chunks,
// or when the later chunks outgrow a quarter of the first; the copy keeps the
// indexes that covered the whole content.
func (r *Relation) Clone() *Relation {
	c := &Relation{typ: r.typ, keyPos: r.keyPos}
	n, base := len(r.chunks), len(r.chunks[0].rows)
	if base < minSharedClone || n > maxDepth || r.Len()-base > base/4 {
		c.chunks = []*chunk{r.flatten(true)}
		return c
	}
	r.chunks[n-1].sealed.Store(true)
	c.chunks = r.chunks[:n:n]
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
// overlay: buckets holds only the tuples of the chunks after the one its full
// base index covers up to, and probes merge both layers. IndexOn produces
// overlays when it extends a carried index; base is always a full index, so
// the layering never exceeds depth one.
type Index struct {
	positions []int
	buckets   map[string][]value.Tuple
	base      *Index
}

// BuildIndex indexes the relation on the given attribute positions.
func BuildIndex(r *Relation, positions []int) *Index {
	idx := &Index{positions: positions, buckets: make(map[string][]value.Tuple)}
	for _, c := range r.chunks {
		for _, t := range c.rows {
			k := t.Project(positions).Key()
			idx.buckets[k] = append(idx.buckets[k], t)
		}
	}
	return idx
}

// IndexOn returns a hash index on positions, memoizing it on the relation.
// It seals the newest chunk and memoizes the index there, so the index stays
// valid for every relation sharing that chunk prefix — the difference between
// O(relation) and O(delta) work when a fixpoint is resumed with a small delta
// against large, unchanged relations. An index an earlier chunk carries is
// extended by the chunks after it when carried allows, and otherwise built.
// Relations shared between goroutines are published and therefore unmutated,
// so concurrent IndexOn calls are safe (the worst case is two racers building
// the same index and one winning the memo slot).
func (r *Relation) IndexOn(positions []int) *Index {
	// The signature is built without allocating: selector access paths call
	// IndexOn once per query, and the memo hit below is their common case.
	var buf [32]byte
	sig := appendSig(buf[:0], positions)
	tail := r.chunks[len(r.chunks)-1]
	tail.sealed.Store(true)
	idx, at := r.carried(sig)
	switch {
	case at == len(r.chunks)-1:
		return idx
	case idx == nil:
		idx = BuildIndex(r, positions)
	default:
		prev := idx
		idx = extend(prev, r.chunks[at+1:], positions)
		if prev.base != nil {
			// The extension holds the superseded overlay's tuples: drop it so
			// a relation keeps one overlay alive per signature, not one per
			// chunk. A full index stays; it is the base of every overlay.
			c := r.chunks[at]
			c.mu.Lock()
			if c.idx[string(sig)] == prev {
				delete(c.idx, string(sig))
			}
			c.mu.Unlock()
		}
	}
	tail.mu.Lock()
	if tail.idx == nil {
		tail.idx = make(map[string]*Index)
	}
	tail.idx[string(sig)] = idx
	tail.mu.Unlock()
	return idx
}

// HasIndexOn reports whether the relation already carries an index on
// positions, so that IndexOn serves it without a build: one covering the
// whole content, or one an earlier chunk carries that IndexOn extends.
func (r *Relation) HasIndexOn(positions []int) bool {
	var buf [32]byte
	idx, _ := r.carried(appendSig(buf[:0], positions))
	return idx != nil
}

// carried returns the index on sig that the newest chunk carrying one holds,
// and that chunk's position; nil and -1 when no chunk carries one, or when
// extending it would exceed a quarter of the relation — its own overlay plus
// the later chunks' tuples. Past that point a full build is cheaper than
// dragging an ever-growing overlay through future clones.
func (r *Relation) carried(sig []byte) (*Index, int) {
	later := 0
	for i := len(r.chunks) - 1; i >= 0; i-- {
		c := r.chunks[i]
		c.mu.Lock()
		idx := c.idx[string(sig)]
		c.mu.Unlock()
		if idx != nil {
			if later > 0 && overlaySize(idx)+later > r.Len()/4 {
				return nil, -1
			}
			return idx, i
		}
		later += len(c.rows)
	}
	return nil, -1
}

// appendSig appends the memo signature of positions to buf.
func appendSig(buf []byte, positions []int) []byte {
	for _, p := range positions {
		buf = append(strconv.AppendInt(buf, int64(p), 10), ',')
	}
	return buf
}

// Indexes reports how many memoized indexes are valid for the relation's
// current content (for monitoring): those its newest chunk carries.
func (r *Relation) Indexes() int {
	c := r.chunks[len(r.chunks)-1]
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx)
}

// extend layers the tuples of the chunks later over idx, flattening an
// overlay idx so the result references a single full base.
func extend(idx *Index, later []*chunk, positions []int) *Index {
	full := idx
	var prior map[string][]value.Tuple
	if idx.base != nil {
		full, prior = idx.base, idx.buckets
	}
	buckets := make(map[string][]value.Tuple, len(prior))
	for k, ts := range prior {
		// Capacity-clipped alias: a later append reallocates instead of
		// writing into the extended overlay's backing array.
		buckets[k] = ts[:len(ts):len(ts)]
	}
	for _, c := range later {
		for _, t := range c.rows {
			k := t.Project(positions).Key()
			buckets[k] = append(buckets[k], t)
		}
	}
	return &Index{positions: positions, buckets: buckets, base: full}
}

// overlaySize is the number of tuples an overlay holds beyond its full base:
// 0 for a full index.
func overlaySize(idx *Index) int {
	size := 0
	if idx.base != nil {
		for _, ts := range idx.buckets {
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
