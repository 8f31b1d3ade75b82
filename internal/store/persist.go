package store

// Binary persistence for databases: a small self-describing format (magic,
// version, per-variable type descriptor and tuple block). The format is
// deliberately simple — length-prefixed strings, varint counts — and
// round-trips every schema feature (subranges, keys). The low-level codecs
// are exported for package wal, which logs the same type descriptors and
// values record by record.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

const (
	magic   = "DBPLSTOR"
	version = 1
)

// WriteUvarint writes an unsigned varint.
func WriteUvarint(w *bufio.Writer, u uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], u)
	_, err := w.Write(buf[:n])
	return err
}

// WriteString writes a length-prefixed string.
func WriteString(w *bufio.Writer, s string) error {
	if err := WriteUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// ByteReader is what the codecs read from: a bufio.Reader over a file, or a
// bytes.Reader over one in-memory payload.
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// ReadString reads a length-prefixed string. A length over 1 GiB, or over
// the bytes a bytes.Reader has left, is corruption, reported before anything
// is allocated for it.
func ReadString(r ByteReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if br, ok := r.(*bytes.Reader); n > 1<<30 || ok && n > uint64(br.Len()) {
		return "", fmt.Errorf("store: corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteValue writes one scalar value (kind byte plus payload).
func WriteValue(w *bufio.Writer, v value.Value) error {
	if err := w.WriteByte(byte(v.Kind())); err != nil {
		return err
	}
	switch v.Kind() {
	case value.KindInt:
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.AsInt())
		_, err := w.Write(buf[:n])
		return err
	case value.KindString:
		return WriteString(w, v.AsString())
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return w.WriteByte(b)
	default:
		return fmt.Errorf("store: cannot persist invalid value")
	}
}

// AppendValue appends one scalar value to dst in WriteValue's format.
func AppendValue(dst []byte, v value.Value) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		return binary.AppendVarint(dst, v.AsInt()), nil
	case value.KindString:
		s := v.AsString()
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...), nil
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(dst, b), nil
	default:
		return dst[:len(dst)-1], fmt.Errorf("store: cannot persist invalid value")
	}
}

// ReadValue reads one scalar value.
func ReadValue(r ByteReader) (value.Value, error) {
	k, err := r.ReadByte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Kind(k) {
	case value.KindInt:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case value.KindString:
		s, err := ReadString(r)
		if err != nil {
			return value.Value{}, err
		}
		return value.Str(s), nil
	case value.KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return value.Value{}, err
		}
		return value.Bool(b != 0), nil
	default:
		return value.Value{}, fmt.Errorf("store: corrupt value kind %d", k)
	}
}

func writeScalarType(w *bufio.Writer, t schema.ScalarType) error {
	if err := WriteString(w, t.Name); err != nil {
		return err
	}
	if err := w.WriteByte(byte(t.Kind)); err != nil {
		return err
	}
	hb := byte(0)
	if t.HasRange {
		hb = 1
	}
	if err := w.WriteByte(hb); err != nil {
		return err
	}
	if t.HasRange {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], t.Lo)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		n = binary.PutVarint(buf[:], t.Hi)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

func readScalarType(r ByteReader) (schema.ScalarType, error) {
	var t schema.ScalarType
	var err error
	if t.Name, err = ReadString(r); err != nil {
		return t, err
	}
	k, err := r.ReadByte()
	if err != nil {
		return t, err
	}
	t.Kind = value.Kind(k)
	hb, err := r.ReadByte()
	if err != nil {
		return t, err
	}
	if hb != 0 {
		t.HasRange = true
		if t.Lo, err = binary.ReadVarint(r); err != nil {
			return t, err
		}
		if t.Hi, err = binary.ReadVarint(r); err != nil {
			return t, err
		}
	}
	return t, nil
}

// WriteRelationType writes a full relation type descriptor (type name,
// attributes with domains, key).
func WriteRelationType(w *bufio.Writer, typ schema.RelationType) error {
	if err := WriteString(w, typ.Name); err != nil {
		return err
	}
	if err := WriteUvarint(w, uint64(typ.Element.Arity())); err != nil {
		return err
	}
	for _, a := range typ.Element.Attrs {
		if err := WriteString(w, a.Name); err != nil {
			return err
		}
		if err := writeScalarType(w, a.Type); err != nil {
			return err
		}
	}
	if err := WriteUvarint(w, uint64(len(typ.Key))); err != nil {
		return err
	}
	for _, k := range typ.Key {
		if err := WriteString(w, k); err != nil {
			return err
		}
	}
	return nil
}

// ReadRelationType reads a relation type descriptor written by
// WriteRelationType. Like ReadString, it checks the attribute count against
// the bytes a bytes.Reader has left (an attribute takes at least four)
// before allocating for it.
func ReadRelationType(r ByteReader) (schema.RelationType, error) {
	var typ schema.RelationType
	var err error
	if typ.Name, err = ReadString(r); err != nil {
		return typ, err
	}
	arity, err := binary.ReadUvarint(r)
	if err != nil {
		return typ, err
	}
	if br, ok := r.(*bytes.Reader); arity > 1<<20 || ok && arity > uint64(br.Len())/4 {
		return typ, fmt.Errorf("store: corrupt arity %d", arity)
	}
	attrs := make([]schema.Attribute, arity)
	for j := range attrs {
		if attrs[j].Name, err = ReadString(r); err != nil {
			return typ, err
		}
		if attrs[j].Type, err = readScalarType(r); err != nil {
			return typ, err
		}
	}
	typ.Element = schema.RecordType{Attrs: attrs}
	nKey, err := binary.ReadUvarint(r)
	if err != nil {
		return typ, err
	}
	if nKey > arity {
		return typ, fmt.Errorf("store: corrupt key length %d", nKey)
	}
	key := make([]string, nKey)
	for j := range key {
		if key[j], err = ReadString(r); err != nil {
			return typ, err
		}
	}
	typ.Key = key
	return typ, nil
}

// Save writes the database (types and contents) to w.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.saveLocked(w)
}

// saveLocked is Save's body, callable while db.mu is already held (Subscribe
// captures the image under the write lock). It is the logical image: on the
// paged engine every variable is materialized through the buffer pool, and an
// I/O failure fails the save rather than silently writing a partial database.
func (db *Database) saveLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	names := db.engine.Names()
	// Deterministic output order.
	sort.Strings(names)
	if err := WriteUvarint(bw, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		typ, _ := db.engine.Type(name)
		rel, ok, err := db.engine.Get(name)
		if err != nil {
			return fmt.Errorf("store: saving %q: %w", name, err)
		}
		if !ok {
			return fmt.Errorf("store: saving %q: variable vanished", name)
		}
		if err := WriteString(bw, name); err != nil {
			return err
		}
		if err := WriteRelationType(bw, typ); err != nil {
			return err
		}
		if err := WriteUvarint(bw, uint64(rel.Len())); err != nil {
			return err
		}
		for _, t := range rel.Tuples() {
			for _, v := range t {
				if err := WriteValue(bw, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Load reads a database previously written by Save into a new database on
// the memory engine.
func Load(r io.Reader) (*Database, error) {
	return LoadInto(r, NewMemoryEngine())
}

// LoadInto reads a database previously written by Save into a new database
// over engine, which holds no variables yet: each variable is declared, then
// published whole. A durable session's LoadStore imports through it into its
// page engine.
func LoadInto(r io.Reader, engine Engine) (*Database, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, fmt.Errorf("store: not a DBPL store file")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("store: unsupported version %d", ver)
	}
	nVars, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	db := NewDatabaseWith(engine)
	for i := uint64(0); i < nVars; i++ {
		name, err := ReadString(br)
		if err != nil {
			return nil, err
		}
		typ, err := ReadRelationType(br)
		if err != nil {
			return nil, err
		}
		if err := db.Declare(name, typ); err != nil {
			return nil, err
		}
		nTuples, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		arity := typ.Element.Arity()
		rel := relation.New(typ)
		for j := uint64(0); j < nTuples; j++ {
			tup := make(value.Tuple, arity)
			for k := range tup {
				if tup[k], err = ReadValue(br); err != nil {
					return nil, err
				}
			}
			if err := rel.Insert(tup); err != nil {
				return nil, err
			}
		}
		engine.Publish(name, rel)
	}
	return db, nil
}
