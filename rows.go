package dbpl

import (
	"context"

	"repro/internal/relation"
	"repro/internal/value"
)

// Rows is a cursor over a query result, modeled on database/sql: call Next
// until it returns false, Scan inside the loop, check Err after it, and
// Close when done (Close is idempotent and implied by exhausting the
// cursor). Tuples are yielded in unspecified order; use Relation().Tuples()
// when deterministic order is needed.
//
// The query is fully evaluated before the cursor exists: a Rows iterates the
// materialized result of the snapshot its query evaluated against, so Len and
// Relation are field reads and later writes to the database do not affect it.
// Cancelling the query's context stops the iteration (Err reports the cause).
// It is not safe for concurrent use by multiple goroutines.
type Rows struct {
	rel    *relation.Relation
	ctx    context.Context
	cols   []string
	pos    relation.Cursor
	cur    value.Tuple
	err    error
	closed bool
}

// newRows wraps an already evaluated result relation. ctx is the query's
// context; iteration stops (and Err reports the cause) once it is canceled.
func newRows(ctx context.Context, rel *relation.Relation) *Rows {
	return &Rows{rel: rel, ctx: ctx, cols: colsOf(rel), pos: rel.Cursor()}
}

func colsOf(rel *relation.Relation) []string {
	elem := rel.Type().Element
	cols := make([]string, len(elem.Attrs))
	for i, a := range elem.Attrs {
		cols[i] = a.Name
	}
	return cols
}

// Columns returns the attribute names of the result relation.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the total number of result tuples (DBPL queries produce sets).
func (r *Rows) Len() int { return r.rel.Len() }

// Relation returns the result relation.
func (r *Rows) Relation() *Relation { return r.rel }

// Next advances to the next tuple, reporting whether one is available. It
// returns false once the cursor is exhausted, closed, canceled, or a Scan
// has failed; Err distinguishes exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.setErr(err)
			r.Close()
			return false
		}
	}
	t, ok := r.pos.Next()
	if !ok {
		r.Close()
		return false
	}
	r.cur = t
	return true
}

// Tuple returns the current tuple (valid after a true Next).
func (r *Rows) Tuple() Tuple { return r.cur }

// setErr records the first error encountered; later ones do not overwrite
// it.
func (r *Rows) setErr(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Scan copies the current tuple's values into dest, which must hold one
// pointer per attribute: *string, *int, *int64, *bool, *Value, or *any. A
// *any destination receives the Go-native form of the scalar — string,
// int64, or bool (the DBPL value domain is scalar) — never an internal
// value type. Scan errors are returned and also sticky: they stop the
// iteration and surface from Err after the loop.
func (r *Rows) Scan(dest ...any) error {
	if err := r.cur.Scan(r.cols, dest); err != nil {
		r.setErr(err)
		return err
	}
	return nil
}

// Err returns the first error encountered during iteration: the query
// context's cancellation cause or a sticky Scan failure. It is nil after a
// loop that simply exhausted the cursor.
func (r *Rows) Err() error { return r.err }

// Close ends the iteration. It is idempotent, safe after exhaustion, and
// preserves Err. A Rows holds no goroutine or other resource, so one that is
// dropped without Close leaks nothing.
func (r *Rows) Close() error {
	r.closed = true
	r.cur = nil
	return nil
}
