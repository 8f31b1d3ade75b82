package wal

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/value"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// uvarints encodes the numbers as consecutive uvarints.
func uvarints(ns ...uint64) []byte {
	var p []byte
	for _, n := range ns {
		p = binary.AppendUvarint(p, n)
	}
	return p
}

// mutationHeader is an op byte and a one-byte variable name.
func mutationHeader(op store.Op) []byte { return []byte{byte(op), 1, 'R'} }

// A replica decodes payloads off the network: a few bytes whose counts claim
// a gigabyte of mutations, tuples, attributes or values must fail with an
// error after allocating less than 1 MiB.
func TestDecodeBatchDoesNotTrustCounts(t *testing.T) {
	block := func(op store.Op, arity, n uint64) []byte {
		return append(append(uvarints(1), mutationHeader(op)...), uvarints(arity, n)...)
	}
	for name, payload := range map[string][]byte{
		"count-claims-1GiB":        uvarints(1 << 30),
		"insert-claims-1GiB-pairs": block(store.OpInsert, 2, 1<<30),
		"assign-claims-1GiB-pairs": block(store.OpAssign, 2, 1<<30),
		"arity-claims-1Mi":         block(store.OpInsert, 1<<20, 1),
		"empty-tuples-claim-1Gi":   block(store.OpInsert, 0, 1<<30),
		"declare-claims-1Mi-attrs": append(append(uvarints(1), mutationHeader(store.OpDeclare)...), append([]byte{1, 'T'}, uvarints(1<<20)...)...),
	} {
		var err error
		if n := allocated(func() { _, err = DecodeBatch(payload) }); err == nil || n >= 1<<20 {
			t.Errorf("%s (%d bytes): err=%v, %d bytes allocated", name, len(payload), err, n)
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	typ := pairType("R")
	p, err := EncodeBatch([]store.Mutation{
		{Op: store.OpDeclare, Name: "R", Type: typ},
		{Op: store.OpAssign, Name: "R", Rel: relation.MustFromTuples(typ, tup("vase", "table"))},
		{Op: store.OpInsert, Name: "R", Tuples: nil},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p)
	if p, err = EncodeBatch([]store.Mutation{{Op: store.OpInsert, Name: "R", Tuples: []value.Tuple{tup("table", "chair"), tup("chair", "door")}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(p)
	f.Fuzz(func(t *testing.T, p []byte) {
		batch, err := DecodeBatch(p)
		if err != nil {
			return
		}
		// What decodes re-encodes to a payload that decodes to the same
		// batch; an assignment is re-encoded as the insert of its tuples,
		// the same tuple block under another op.
		again := make([]store.Mutation, len(batch))
		for i, m := range batch {
			if m.Op == store.OpAssign {
				m.Op = store.OpInsert
			}
			again[i] = m
		}
		q, err := EncodeBatch(again)
		if err != nil {
			t.Fatalf("decoded batch %+v does not re-encode: %v", batch, err)
		}
		got, err := DecodeBatch(q)
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("batch %+v round trips to %+v, %v", again, got, err)
		}
	})
}
