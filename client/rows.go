package client

import (
	"bufio"
	"context"
	"net"

	dbpl "repro"

	"repro/internal/value"
	"repro/internal/wire"
)

// framer owns the buffered stream and the request/response discipline.
type framer struct {
	br *bufio.Reader
	bw *bufio.Writer
}

func newFramer(conn net.Conn) *framer {
	return &framer{br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

type frame struct {
	typ     byte
	payload []byte
}

// roundTrip writes one request and reads one response. A TErr response is
// returned as rerr (the connection stays usable); transport failures come
// back as err.
func (f *framer) roundTrip(typ byte, payload []byte) (resp frame, rerr error, err error) {
	if err := wire.WriteFrame(f.bw, typ, payload); err != nil {
		return frame{}, nil, err
	}
	if err := f.bw.Flush(); err != nil {
		return frame{}, nil, err
	}
	rtyp, rpayload, err := wire.ReadFrame(f.br)
	if err != nil {
		return frame{}, nil, err
	}
	if rtyp == wire.TErr {
		return frame{typ: rtyp}, wire.AsRemote(rpayload), nil
	}
	return frame{typ: rtyp, payload: rpayload}, nil, nil
}

// Rows is a streaming cursor over a remote query result, mirroring
// dbpl.Rows: Next/Scan/Err/Close, Columns, and an up-front Len. Tuples
// arrive in fetch-size batches pulled on demand (client-driven backpressure);
// the server holds the materialized snapshot until the cursor is closed or
// exhausted. Not safe for concurrent use.
type Rows struct {
	c     *DB
	ctx   context.Context
	id    uint64
	cols  []string
	total int

	buf    []value.Tuple
	pos    int
	cur    value.Tuple
	done   bool // server exhausted the cursor (it is already released there)
	closed bool
	err    error
}

// newRows parses a TRowsHeader payload into a cursor.
func (c *DB) newRows(ctx context.Context, header []byte) (*Rows, error) {
	d := wire.NewDec(header)
	id, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	ncols, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, ncols)
	for range ncols {
		col, err := d.Str()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	total, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	return &Rows{c: c, ctx: ctx, id: id, cols: cols, total: int(total)}, nil
}

// Columns returns the attribute names of the result relation.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the total number of result tuples (known up front: DBPL
// queries produce sets; the server materializes before the header).
func (r *Rows) Len() int { return r.total }

// fetch pulls the next batch from the server.
func (r *Rows) fetch() bool {
	e := wire.NewEnc()
	e.Uvarint(r.id)
	e.Uvarint(uint64(r.c.fetchSize))
	payload, err := e.Payload()
	if err != nil {
		r.setErr(err)
		return false
	}
	resp, err := r.c.exchange(r.ctx, wire.TFetch, payload, wire.TRowsBatch)
	if err != nil {
		r.setErr(err)
		r.done = true // the server dropped the cursor along with the error
		return false
	}
	d := wire.NewDec(resp)
	n, err := d.Uvarint()
	if err != nil {
		r.setErr(err)
		return false
	}
	arity := len(r.cols)
	r.buf = r.buf[:0]
	r.pos = 0
	for range n {
		tp := make(value.Tuple, arity)
		for i := range arity {
			v, err := d.Value()
			if err != nil {
				r.setErr(err)
				return false
			}
			tp[i] = v
		}
		r.buf = append(r.buf, tp)
	}
	done, err := d.Bool()
	if err != nil {
		r.setErr(err)
		return false
	}
	r.done = done
	return n > 0
}

// Next advances to the next tuple, fetching a batch from the server when the
// local buffer runs dry. It returns false once the cursor is exhausted,
// closed, canceled, or a Scan has failed; Err distinguishes exhaustion from
// failure.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.setErr(err)
		r.Close()
		return false
	}
	if r.pos >= len(r.buf) {
		if r.done || !r.fetch() {
			r.Close()
			return false
		}
	}
	r.cur = r.buf[r.pos]
	r.pos++
	return true
}

// Tuple returns the current tuple (valid after a true Next).
func (r *Rows) Tuple() dbpl.Tuple { return r.cur }

func (r *Rows) setErr(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Scan copies the current tuple's values into dest with the same destination
// types and conversions as the embedded dbpl.Rows.Scan: *string, *int,
// *int64, *bool, *dbpl.Value, or *any.
func (r *Rows) Scan(dest ...any) error {
	if err := r.cur.Scan(r.cols, dest); err != nil {
		r.setErr(err)
		return err
	}
	return nil
}

// Err returns the first error encountered during iteration; nil after a loop
// that simply exhausted the cursor.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor, on the server too if it still holds it. It is
// idempotent, safe after exhaustion, and preserves Err.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cur = nil
	r.buf = nil
	if r.done {
		return nil // exhausted: the server already dropped it
	}
	e := wire.NewEnc()
	e.Uvarint(r.id)
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	// Use a background context: the query's ctx may already be canceled, and
	// the release must still reach the server to free its limit slots.
	_, err = r.c.exchange(context.Background(), wire.TRowsClose, payload, wire.TOK)
	return err
}
