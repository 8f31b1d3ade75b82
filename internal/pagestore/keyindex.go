package pagestore

// The key index: how Grow checks a batch against a relation that is not
// resident without decoding it. Section 2.2's insertion test needs only the
// keys of the stored tuples, so the index maps a hash of each stored key's
// encoding (the page codec's bytes of the key attributes, in key order) to
// the ordinal of the page holding it. A probe that misses proves the key
// absent; a hit faults in that one page and compares the stored encodings
// exactly, so a hash collision costs a page read, never a wrong answer. Two
// stored keys on different pages that share a hash mark their entry scanAll.
//
// Only a table too large for the residency budget takes this path (a smaller
// one is made resident instead, see Grow), so the index stands in for a value
// the engine could not keep anyway. It is built by one key-only pass over the
// table's pages (no tuple is decoded), maintained O(batch) as cold growth
// appends — the check's encodings and hashes are kept for the PublishDelta
// that follows it — and never persisted. The engine keeps at most one, for
// its most recent cold-insert target, and drops it when that table gets a
// resident value (materialization, Publish, PublishDelta with a value), on
// LoadManifest and on Close, so it never coexists with a decoded value of
// its table.

import (
	"bytes"
	"fmt"
	"hash/maphash"

	"repro/internal/relation"
	"repro/internal/value"
)

// scanAll marks a key hash shared by stored keys on different pages: a probe
// that hits it checks every page of the table.
const scanAll = -1

// keyIndex is the key index of one non-resident table.
type keyIndex struct {
	t      *table
	keyPos []int
	// pages maps a key hash to the ordinal in t.pages of the page holding
	// the key, or to scanAll.
	pages map[uint64]int32
	// ends is scratch space for splitting one encoded tuple into fields.
	ends []int
	// The batch the latest check admitted, for the PublishDelta that
	// appends it: tuple i's encoding is grown[grownEnds[i-1]:grownEnds[i]]
	// (from 0 for i = 0) and its key hash grownHashes[i].
	grown       []byte
	grownEnds   []int
	grownHashes []uint64
}

// keyOf appends to dst the key encoding of the tuple encoded in buf from
// start, whose fields skipTuple has just split into ki.ends.
func (ki *keyIndex) keyOf(dst, buf []byte, start int) []byte {
	for _, p := range ki.keyPos {
		lo := start
		if p > 0 {
			lo = ki.ends[p-1]
		}
		dst = append(dst, buf[lo:ki.ends[p]]...)
	}
	return dst
}

// encode appends tup's page encoding to enc and its key encoding to key.
func (ki *keyIndex) encode(enc, key []byte, tup value.Tuple) ([]byte, []byte, error) {
	start := len(enc)
	enc, err := appendTuple(enc, tup)
	if err != nil {
		return nil, nil, err
	}
	c := byteCursor{buf: enc, off: start}
	if err := c.skipTuple(ki.ends); err != nil {
		return nil, nil, err
	}
	return enc, ki.keyOf(key, enc, start), nil
}

// note records that a key with hash h is stored on page ord.
func (ki *keyIndex) note(h uint64, ord int) {
	if cur, ok := ki.pages[h]; ok && cur != int32(ord) {
		ki.pages[h] = scanAll
		return
	}
	ki.pages[h] = int32(ord)
}

// eachKeyLocked walks the tuples of page ord of ki's table, calling fn with
// each one's key encoding and whole encoding until fn returns false. fn must
// not fault pages in (the slices point into the frame).
func (e *Engine) eachKeyLocked(ki *keyIndex, ord int, fn func(key, enc []byte) bool) error {
	p := ki.t.pages[ord]
	f, err := e.frameLocked(p)
	if err != nil {
		return err
	}
	c := byteCursor{buf: f.data[pageHeaderLen:p.bytes]}
	var key []byte
	for i := 0; i < p.tuples; i++ {
		start := c.off
		if err := c.skipTuple(ki.ends); err != nil {
			return err
		}
		key = ki.keyOf(key[:0], c.buf, start)
		if !fn(key, c.buf[start:c.off]) {
			return nil
		}
	}
	return nil
}

// buildKeyIndexLocked indexes every stored key of t by one pass over its
// pages through the pool.
func (e *Engine) buildKeyIndexLocked(t *table) (*keyIndex, error) {
	ki := &keyIndex{
		t:      t,
		keyPos: t.typ.KeyPositions(),
		pages:  make(map[uint64]int32, t.tuples),
		ends:   make([]int, t.typ.Element.Arity()),
	}
	for ord := range t.pages {
		if err := e.eachKeyLocked(ki, ord, func(key, _ []byte) bool {
			ki.note(maphash.Bytes(e.seed, key), ord)
			return true
		}); err != nil {
			return nil, err
		}
	}
	e.keyIndexBuilds++
	return ki, nil
}

// lookupLocked returns the stored tuple whose key encoding is key, if any.
func (e *Engine) lookupLocked(ki *keyIndex, key []byte) (value.Tuple, bool, error) {
	ord, ok := ki.pages[maphash.Bytes(e.seed, key)]
	if !ok {
		return nil, false, nil
	}
	lo, hi := int(ord), int(ord)+1
	if ord == scanAll {
		lo, hi = 0, len(ki.t.pages)
	}
	var hit []byte
	for ; lo < hi && hit == nil; lo++ {
		if err := e.eachKeyLocked(ki, lo, func(k, enc []byte) bool {
			if bytes.Equal(k, key) {
				hit = enc
			}
			return hit == nil
		}); err != nil {
			return nil, false, err
		}
	}
	if hit == nil {
		return nil, false, nil
	}
	c := byteCursor{buf: hit}
	tup, err := c.readTuple(len(ki.ends))
	return tup, err == nil, err
}

// growColdLocked is Grow for a non-resident table: the batch is checked
// against the table's key index, built on first use, with Relation.Insert's
// semantics and all-or-nothing, and nothing is decoded but the stored tuples
// whose keys the batch repeats. The admitted tuples' encodings and key hashes
// stay on the index for appendColdLocked.
func (e *Engine) growColdLocked(t *table, tuples []value.Tuple) ([]value.Tuple, error) {
	ki := e.kidx
	if ki == nil || ki.t != t {
		e.kidx = nil
		var err error
		if ki, err = e.buildKeyIndexLocked(t); err != nil {
			e.lastErr = err
			return nil, fmt.Errorf("pagestore: checking keys of %q: %w", t.name, err)
		}
		e.kidx = ki
	}
	ki.grown, ki.grownEnds, ki.grownHashes = nil, nil, nil
	added := make([]value.Tuple, 0, len(tuples))
	// batch holds the tuples added so far by key encoding: the batch must be
	// key-consistent with itself as well as with the stored tuples.
	batch := make(map[string]value.Tuple, len(tuples))
	var enc, key []byte
	var ends []int
	var hashes []uint64
	for _, tup := range tuples {
		if err := relation.CheckElement(t.typ, tup); err != nil {
			return nil, err
		}
		start := len(enc)
		var err error
		if enc, key, err = ki.encode(enc, key[:0], tup); err != nil {
			return nil, err
		}
		old, found := batch[string(key)]
		if !found {
			if old, found, err = e.lookupLocked(ki, key); err != nil {
				e.lastErr = err
				return nil, fmt.Errorf("pagestore: checking keys of %q: %w", t.name, err)
			}
		}
		if found {
			if old.Equal(tup) {
				enc = enc[:start]
				continue
			}
			return nil, &relation.KeyConflictError{Relation: t.typ.Name, Existing: old, Incoming: tup}
		}
		batch[string(key)] = tup
		added = append(added, tup)
		ends = append(ends, len(enc))
		hashes = append(hashes, maphash.Bytes(e.seed, key))
	}
	ki.grown, ki.grownEnds, ki.grownHashes = enc, ends, hashes
	return added, nil
}

// appendColdLocked appends the tuples the latest cold Grow of t admitted —
// the store publishes exactly those, under the same write lock — to t's tail
// page from the encodings the check made, keeping the key index current.
func (e *Engine) appendColdLocked(t *table, tuples []value.Tuple) {
	ki := e.kidx
	if ki == nil || ki.t != t || len(ki.grownHashes) != len(tuples) {
		panic(fmt.Sprintf("pagestore: growth of %q published without a value does not follow a cold Grow of that batch", t.name))
	}
	start := 0
	for i, h := range ki.grownHashes {
		ki.note(h, e.appendEncodedLocked(t, ki.grown[start:ki.grownEnds[i]]))
		start = ki.grownEnds[i]
	}
	ki.grown, ki.grownEnds, ki.grownHashes = nil, nil, nil
}
