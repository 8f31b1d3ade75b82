// Package wire defines the dbpld client/server protocol: length-prefixed
// frames over a byte stream, each carrying one typed message whose payload is
// encoded with the store's binary codecs (length-prefixed strings, varints,
// store.WriteValue scalars). The same frames carry the replication stream: a
// FOLLOW exchange ships a store.Save snapshot and then write-ahead-log batch
// records encoded by wal.EncodeBatch.
//
// # Framing
//
//	uint32 LE frame length | 1 byte message type | payload
//
// The length covers the type byte plus the payload, so a zero-payload message
// frames as length 1. Frames larger than MaxFrame are a protocol error. No
// length prefix is trusted with memory — the server reads frames before it
// has authenticated anyone: the frame reader grows its buffer as payload
// bytes arrive, and the payload decoder checks every length and count
// against the bytes left in the payload.
//
// # Conversation shape
//
// A connection opens with THello (magic, protocol version, auth token) and
// TServerHello. After that the client speaks strict request/response: one
// request frame, one response frame (TErr for failures) — with two
// exceptions. A query (TQuery, TStmtQuery, TTxQuery) is answered with its
// whole result: one TRowsHeader (column names and the total), then TRowsBatch
// frames of at most RowsPerBatch tuples each, the last marked done (an empty
// result is one empty done batch). The server writes all of them before it
// reads the next request and keeps nothing of the query afterwards. TFollow
// flips the connection into a one-way stream of TFollowSnap followed by
// TFollowBatch frames until either side closes.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/store"
	"repro/internal/value"
)

// ProtoMagic opens every THello payload; a mismatch means the peer is not a
// dbpld endpoint at all.
const ProtoMagic = "DBPLW"

// ProtoVersion is the protocol revision; the server rejects clients with a
// different version. Version 2 answers a query with its whole result.
const ProtoVersion = 2

// RowsPerBatch bounds the tuples of one TRowsBatch frame.
const RowsPerBatch = 256

// MinValueLen is the fewest bytes a scalar value encodes to: its kind byte
// and at least one payload byte.
const MinValueLen = 2

// MaxFrame bounds one frame (type byte plus payload). Bootstrap snapshots
// ride in a single frame, so this is generous; it turns a corrupt length
// prefix into an error.
const MaxFrame = 1 << 30

// frameChunk bounds what ReadFrame allocates ahead of the payload bytes it
// has read: a frame up to this size is read into one exact allocation.
const frameChunk = 64 << 10

// Message types.
const (
	// TErr is the generic failure response: code string, message string.
	TErr byte = 1

	THello       byte = 2  // client: magic, version uvarint, token string
	TServerHello byte = 3  // server: role string ("primary" or "replica")
	TExec        byte = 4  // src string, timeout-millis uvarint
	TExecResult  byte = 5  // SHOW output string
	TQuery       byte = 6  // src string, timeout-millis, args
	TPrepare     byte = 7  // src string
	TPrepared    byte = 8  // stmt id uvarint, param names
	TStmtQuery   byte = 9  // stmt id uvarint, timeout-millis, args
	TStmtClose   byte = 10 // stmt id uvarint
	TRowsHeader  byte = 12 // column names, total len uvarint
	TRowsBatch   byte = 13 // n uvarint, n*arity values, done bool
	TBegin       byte = 15 // (empty)
	TTxBegun     byte = 16 // tx id uvarint
	TTxExec      byte = 17 // tx id uvarint, src string, timeout-millis
	TTxQuery     byte = 18 // tx id uvarint, src string, timeout-millis, args
	TTxCommit    byte = 19 // tx id uvarint
	TTxRollback  byte = 20 // tx id uvarint
	TExplain     byte = 21 // src string, analyze bool, timeout-millis
	TExplainText byte = 22 // rendered plan text
	THealth      byte = 23 // (empty)
	THealthInfo  byte = 24 // see EncodeHealth
	TVars        byte = 25 // (empty)
	TVarsInfo    byte = 26 // n uvarint, n * (name string, tuple count uvarint)
	TFollow      byte = 27 // (empty) — switches the connection to streaming
	TFollowSnap  byte = 28 // store.Save bytes of the subscription base state
	TFollowBatch byte = 29 // one wal.EncodeBatch record
	TOK          byte = 30 // empty success response

	// 11 and 14 are retired (version 1's cursor fetch and release) and are
	// not reused, so a stray version-1 frame cannot mean something else.
)

// Error codes carried by TErr. The client maps them back onto the session
// API's sentinel errors, so errors.Is works identically against an embedded
// and a remote database.
const (
	CodeParse      = "parse"      // *dbpl.ParseError
	CodeType       = "type"       // *dbpl.TypeError, *dbpl.PositivityError: statically rejected
	CodeReadOnly   = "readonly"   // errors.Is(err, dbpl.ErrReadOnly)
	CodeLimit      = "limit"      // errors.Is(err, dbpl.ErrLimit)
	CodeClosed     = "closed"     // errors.Is(err, dbpl.ErrClosed)
	CodeTxDone     = "txdone"     // dbpl.ErrTxDone
	CodeStmtClosed = "stmtclosed" // dbpl.ErrStmtClosed
	CodeShutdown   = "shutdown"   // server draining; retry against another endpoint
	CodeAuth       = "auth"       // handshake rejected
	CodeProto      = "proto"      // malformed or out-of-protocol frame
	CodeBehind     = "behind"     // follow stream cut: subscriber fell behind
	CodeCanceled   = "canceled"   // server-side deadline/cancellation
	CodeInternal   = "internal"   // anything else
)

// WriteFrame writes one frame. The caller owns buffering and flushing.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: %d-byte frame exceeds the %d-byte limit", len(payload)+1, MaxFrame)
	}
	var head [5]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)+1))
	head[4] = typ
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, returning its type and payload. The payload
// buffer doubles as bytes arrive, from at most frameChunk, so a length prefix
// alone never allocates more than that.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	if length == 0 || length > MaxFrame {
		return 0, nil, fmt.Errorf("wire: corrupt frame length %d", length)
	}
	if _, err := io.ReadFull(r, head[4:5]); err != nil {
		return 0, nil, err
	}
	n := int(length - 1)
	payload := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		got, err := io.ReadFull(r, payload[off:])
		if err != nil {
			return 0, nil, err
		}
		if off += got; off == n {
			return head[4], payload, nil
		}
		payload = append(payload, make([]byte, min(n-off, off))...)
	}
}

// Enc builds one message payload. The only encoding error is an invalid
// value; Enc keeps the first and Payload returns it, so call sites stay
// linear.
type Enc struct {
	buf []byte
	err error
}

// NewEnc returns an empty payload encoder.
func NewEnc() *Enc { return &Enc{} }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	e.Byte(v)
}

// Value appends one scalar in store.WriteValue format.
func (e *Enc) Value(v value.Value) {
	var err error
	if e.buf, err = store.AppendValue(e.buf, v); err != nil && e.err == nil {
		e.err = err
	}
}

// Bytes appends a length-prefixed byte block.
func (e *Enc) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Payload returns the encoded payload (or the first error).
func (e *Enc) Payload() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Dec decodes one message payload. Every length prefix is checked against
// the bytes left in the payload before anything is allocated for it.
type Dec struct {
	r *bytes.Reader
}

// NewDec wraps a payload for decoding.
func NewDec(p []byte) *Dec { return &Dec{r: bytes.NewReader(p)} }

// Str reads a length-prefixed string.
func (d *Dec) Str() (string, error) { return store.ReadString(d.r) }

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

// Byte reads one raw byte.
func (d *Dec) Byte() (byte, error) { return d.r.ReadByte() }

// Bool reads a one-byte bool.
func (d *Dec) Bool() (bool, error) {
	b, err := d.r.ReadByte()
	return b != 0, err
}

// Value reads one scalar in store.ReadValue format.
func (d *Dec) Value() (value.Value, error) { return store.ReadValue(d.r) }

// Count reads the count of a sequence whose elements encode to at least size
// bytes each. A count whose minimum encoding exceeds the bytes left in the
// payload is an error, so a caller may allocate from the count it returns.
// Elements of size 0 are zero-arity tuples, of which a set holds at most one.
func (d *Dec) Count(size int) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if left := uint64(d.r.Len()); size == 0 && n > 1 || size > 0 && n > left/uint64(size) {
		return 0, fmt.Errorf("wire: corrupt count %d of %d-byte elements, %d byte(s) left in the payload", n, size, left)
	}
	return int(n), nil
}

// Bytes reads a length-prefixed byte block.
func (d *Dec) Bytes() ([]byte, error) {
	n, err := d.Count(1)
	if err != nil {
		return nil, err
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeErr builds a TErr payload.
func EncodeErr(code, msg string) []byte {
	e := NewEnc()
	e.Str(code)
	e.Str(msg)
	p, _ := e.Payload()
	return p
}

// DecodeErr parses a TErr payload.
func DecodeErr(payload []byte) (code, msg string, err error) {
	d := NewDec(payload)
	if code, err = d.Str(); err != nil {
		return "", "", err
	}
	if msg, err = d.Str(); err != nil {
		return "", "", err
	}
	return code, msg, nil
}

// Health is the wire form of a server's health report: the session-layer
// fields plus the serving role and, for replicas, replication progress.
type Health struct {
	Role       string // "primary" or "replica"
	Durable    bool
	Degraded   bool
	Cause      string // degradation cause, "" while ok
	Generation uint64
	Tail       uint64 // log records since the last checkpoint
	// Replica progress: batches applied since start, connection state, and
	// the last stream error ("" while healthy).
	Applied   uint64
	Connected bool
	StreamErr string
	// Parallelism is how many equations of a fixpoint round the server
	// evaluates at once (dbpld -parallel).
	Parallelism uint64
	// Materialized-view cache state: enabled flag, live entries, read
	// outcome counters, and queued-delta maintenance backlog.
	MatEnabled    bool
	MatEntries    uint64
	MatHits       uint64
	MatMisses     uint64
	MatMaintained uint64
	MatBacklog    uint64
}

// Encode builds a THealthInfo payload.
func (h Health) Encode() []byte {
	e := NewEnc()
	e.Str(h.Role)
	e.Bool(h.Durable)
	e.Bool(h.Degraded)
	e.Str(h.Cause)
	e.Uvarint(h.Generation)
	e.Uvarint(h.Tail)
	e.Uvarint(h.Applied)
	e.Bool(h.Connected)
	e.Str(h.StreamErr)
	e.Uvarint(h.Parallelism)
	e.Bool(h.MatEnabled)
	e.Uvarint(h.MatEntries)
	e.Uvarint(h.MatHits)
	e.Uvarint(h.MatMisses)
	e.Uvarint(h.MatMaintained)
	e.Uvarint(h.MatBacklog)
	p, _ := e.Payload()
	return p
}

// DecodeHealth parses a THealthInfo payload.
func DecodeHealth(payload []byte) (Health, error) {
	d := NewDec(payload)
	var h Health
	var err error
	if h.Role, err = d.Str(); err != nil {
		return h, err
	}
	if h.Durable, err = d.Bool(); err != nil {
		return h, err
	}
	if h.Degraded, err = d.Bool(); err != nil {
		return h, err
	}
	if h.Cause, err = d.Str(); err != nil {
		return h, err
	}
	if h.Generation, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Tail, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Applied, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.Connected, err = d.Bool(); err != nil {
		return h, err
	}
	if h.StreamErr, err = d.Str(); err != nil {
		return h, err
	}
	if h.Parallelism, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatEnabled, err = d.Bool(); err != nil {
		return h, err
	}
	if h.MatEntries, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatHits, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatMisses, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatMaintained, err = d.Uvarint(); err != nil {
		return h, err
	}
	if h.MatBacklog, err = d.Uvarint(); err != nil {
		return h, err
	}
	return h, nil
}
