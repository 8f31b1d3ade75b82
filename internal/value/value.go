// Package value defines the runtime scalar values and tuples manipulated by
// the DBPL reproduction engine.
//
// The paper's language (a MODULA-2 extension) is strongly typed; the value
// domain needed by its examples is scalar: integers (including MODULA-2
// CARDINAL subranges such as the cardrel example of section 3.3), strings
// (object keys such as "table" in the hidden_by selector), and booleans
// (predicate results). Tuples are fixed-arity sequences of scalars; relations
// (package relation) are keyed sets of tuples.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the scalar kinds supported by the engine.
type Kind uint8

// The supported scalar kinds.
const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer (covers INTEGER and CARDINAL)
	KindString       // character string (object keys, part identifiers)
	KindBool         // boolean (predicate values)
)

// String returns the DBPL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INTEGER"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOLEAN"
	default:
		return "INVALID"
	}
}

// Value is a scalar runtime value. The zero Value is invalid.
//
// Value is a comparable struct so it can be used directly as a map key and
// compared with ==; two Values are equal iff their kind and payload are equal.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the Stringer method.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a short alias for String_.
func Str(s string) Value { return String_(s) }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool, i: 0}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload; it panics if the value is not an integer.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsString returns the string payload; it panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload; it panics if the value is not a boolean.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// Compare orders two values of the same kind: -1, 0, or +1. Values of
// different kinds are ordered by kind, so Compare is a total order over all
// valid values (needed for deterministic relation iteration).
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s)
	default:
		if v.i < o.i {
			return -1
		}
		if v.i > o.i {
			return 1
		}
		return 0
	}
}

// String renders the value in DBPL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "<invalid>"
	}
}

// appendKey appends a self-delimiting binary encoding of the value to dst.
// The encoding is injective across kinds and payloads, so concatenated
// encodings of tuples are injective as long as arity is fixed.
func (v Value) appendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindString:
		dst = appendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	default:
		u := uint64(v.i)
		dst = append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// Tuple is a fixed-arity sequence of scalar values: one element of a relation.
// Tuples are immutable by convention; callers must not mutate a Tuple after
// handing it to a relation.
type Tuple []Value

// NewTuple builds a tuple from its values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Key returns an injective string encoding of the tuple, suitable as a map
// key. Two tuples of equal arity have equal keys iff they are equal.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, len(t)*10)))
}

// AppendKey appends Key's encoding of the tuple to dst, so a caller can look
// a tuple up in a Key-indexed map without allocating the key.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendKey(dst)
	}
	return dst
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// String renders the tuple in the paper's angle-bracket syntax, e.g.
// <"table", "chair">.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte('>')
	return b.String()
}
