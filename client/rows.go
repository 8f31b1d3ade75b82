package client

import (
	"bufio"
	"context"
	"fmt"
	"slices"

	dbpl "repro"

	"repro/internal/value"
	"repro/internal/wire"
)

// Rows iterates a remote query result, mirroring dbpl.Rows: Next/Scan/Err/
// Close, Columns and Len. The whole result arrives with the query's answer,
// so iterating and closing never touch the connection. Not safe for
// concurrent use.
type Rows struct {
	ctx    context.Context
	cols   []string
	tuples []value.Tuple
	pos    int
	cur    value.Tuple
	closed bool
	err    error
}

// readRows decodes a query's answer: the TRowsHeader payload, then the
// TRowsBatch frames that follow it on the stream up to the one marked done.
// Every count is checked against its payload before it is allocated from.
func readRows(ctx context.Context, br *bufio.Reader, header []byte) (*Rows, error) {
	d := wire.NewDec(header)
	ncols, err := d.Count(1)
	if err != nil {
		return nil, err
	}
	r := &Rows{ctx: ctx, cols: make([]string, ncols)}
	for i := range r.cols {
		if r.cols[i], err = d.Str(); err != nil {
			return nil, err
		}
	}
	total, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	arity := len(r.cols)
	for done := false; !done; {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return nil, err
		}
		if typ != wire.TRowsBatch {
			return nil, fmt.Errorf("client: expected a row batch, got frame type %d", typ)
		}
		d := wire.NewDec(payload)
		n, err := d.Count(wire.MinValueLen * arity)
		if err != nil {
			return nil, err
		}
		vals := make([]value.Value, n*arity)
		for i := range vals {
			if vals[i], err = d.Value(); err != nil {
				return nil, err
			}
		}
		r.tuples = slices.Grow(r.tuples, n)
		for i := range n {
			r.tuples = append(r.tuples, vals[i*arity:(i+1)*arity:(i+1)*arity])
		}
		if done, err = d.Bool(); err != nil {
			return nil, err
		}
	}
	if uint64(len(r.tuples)) != total {
		return nil, fmt.Errorf("client: a result of %d tuples arrived with %d", total, len(r.tuples))
	}
	return r, nil
}

// Columns returns the attribute names of the result relation.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the total number of result tuples (DBPL queries produce sets).
func (r *Rows) Len() int { return len(r.tuples) }

// Next advances to the next tuple. It returns false once the rows are
// exhausted, closed, canceled, or a Scan has failed; Err distinguishes
// exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.setErr(err)
		r.Close()
		return false
	}
	if r.pos >= len(r.tuples) {
		r.Close()
		return false
	}
	r.cur = r.tuples[r.pos]
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
// that simply exhausted the rows.
func (r *Rows) Err() error { return r.err }

// Close ends the iteration. It is idempotent, safe after exhaustion, and
// preserves Err.
func (r *Rows) Close() error {
	r.closed = true
	r.cur = nil
	return nil
}
