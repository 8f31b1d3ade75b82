package client

// Tests of the client over an in-process server on a loopback listener: a
// remote result matches the embedded one, arrives whole whatever its size,
// closes locally, and the session sentinels survive the wire.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	dbpl "repro"

	"repro/internal/server"
	"repro/internal/wire"
)

const mixedModule = `
MODULE kinds;
TYPE mixed = RELATION OF RECORD name: STRING; n: INTEGER; ok: BOOLEAN END;
VAR M: mixed;
VAR Empty: mixed;
M := {<"a", 1, TRUE>, <"b", 2, FALSE>, <"c", 3, TRUE>};
END kinds.
`

// serve opens an embedded database holding mixedModule, serves it on
// 127.0.0.1:0, and returns the database and a client connected to it.
func serve(t *testing.T) (*dbpl.DB, *DB) {
	t.Helper()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(mixedModule); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // exits with the listener at cleanup
	t.Cleanup(func() { srv.Close() })
	c, err := Open(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, c
}

// scanned renders every row through Scan, sorted.
func scanned(t *testing.T, next func() bool, scan func(...any) error, rowsErr func() error) []string {
	t.Helper()
	var out []string
	for next() {
		var name string
		var n int
		var ok bool
		if err := scan(&name, &n, &ok); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s/%d/%t", name, n, ok))
	}
	if err := rowsErr(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// TestRowsMatchEmbedded: one query through client.Rows and through dbpl.Rows
// gives the same columns, length, tuples and Scan results.
func TestRowsMatchEmbedded(t *testing.T) {
	ctx := context.Background()
	db, c := serve(t)
	for _, q := range []string{`M`, `{EACH m IN M: m.ok = TRUE}`, `Empty`} {
		local, err := db.QueryContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := c.QueryContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if l, r := strings.Join(local.Columns(), ","), strings.Join(remote.Columns(), ","); l != r {
			t.Errorf("%s: columns %s remote, %s embedded", q, r, l)
		}
		if local.Len() != remote.Len() {
			t.Errorf("%s: Len %d remote, %d embedded", q, remote.Len(), local.Len())
		}
		var lt, rt []string
		for _, tp := range local.Relation().Tuples() {
			lt = append(lt, tp.String())
		}
		want := scanned(t, local.Next, local.Scan, local.Err)
		got := scanned(t, func() bool {
			if !remote.Next() {
				return false
			}
			rt = append(rt, remote.Tuple().String())
			return true
		}, remote.Scan, remote.Err)
		if !slices.Equal(got, want) {
			t.Errorf("%s: scanned %v remote, %v embedded", q, got, want)
		}
		slices.Sort(lt)
		slices.Sort(rt)
		if !slices.Equal(lt, rt) {
			t.Errorf("%s: tuples %v remote, %v embedded", q, rt, lt)
		}
	}
}

// TestRowsArriveWhole: a 1 000-row result (four batches) arrives whole, and
// an empty result ends at once without an error.
func TestRowsArriveWhole(t *testing.T) {
	ctx := context.Background()
	db, c := serve(t)
	const n = 1000
	if n <= 3*wire.RowsPerBatch {
		t.Fatalf("%d rows fit in three batches of %d", n, wire.RowsPerBatch)
	}
	for i := range n {
		if err := db.Insert("M", dbpl.NewTuple(dbpl.Str(fmt.Sprint("r", i)), dbpl.Int(int64(i)), dbpl.Bool(i%2 == 0))); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.QueryContext(ctx, `{EACH m IN M: m.name <> "a" AND m.name <> "b" AND m.name <> "c"}`)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	count := 0
	for rows.Next() {
		var name string
		var i int
		var ok bool
		if err := rows.Scan(&name, &i, &ok); err != nil {
			t.Fatal(err)
		}
		if i < 0 || i >= n || seen[i] || name != fmt.Sprint("r", i) || ok != (i%2 == 0) {
			t.Fatalf("row %s/%d/%t: out of range, repeated or wrong", name, i, ok)
		}
		seen[i] = true
		count++
	}
	if rows.Err() != nil || count != n || rows.Len() != n {
		t.Fatalf("%d-row result: %d rows, Len %d, err %v", n, count, rows.Len(), rows.Err())
	}

	empty, err := c.QueryContext(ctx, `Empty`)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Next() || empty.Err() != nil {
		t.Fatalf("empty result: Len %d, err %v", empty.Len(), empty.Err())
	}
}

// TestRowsCloseIdempotent: Close can be called any number of times before and
// after the rows run out, ends the iteration, keeps Err, and leaves the
// connection usable.
func TestRowsCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	_, c := serve(t)

	rows, err := c.QueryContext(ctx, `M`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	for range 3 {
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if rows.Next() || rows.Err() != nil {
		t.Fatalf("after Close: Next true or err %v", rows.Err())
	}

	rows, err = c.QueryContext(ctx, `M`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	for range 3 {
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}

	cctx, cancel := context.WithCancel(ctx)
	rows, err = c.QueryContext(cctx, `M`)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if rows.Next() || !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Next under a canceled context: err %v", rows.Err())
	}
	rows.Close()
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatal("Close cleared the iteration error")
	}

	if _, err := c.QueryContext(ctx, `M`); err != nil {
		t.Fatalf("connection after Close: %v", err)
	}
}

// TestSentinelsCrossTheWire: a statement or transaction handle the server
// does not hold comes back as dbpl.ErrStmtClosed or dbpl.ErrTxDone, matched
// by errors.Is as against an embedded database.
func TestSentinelsCrossTheWire(t *testing.T) {
	ctx := context.Background()
	_, c := serve(t)

	st, err := c.Prepare(`{EACH m IN M: m.n = N}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A copy of the handle the client does not know is closed asks the
	// server, which has released the statement.
	remote := &Stmt{c: c, id: st.id}
	if _, err := remote.QueryRows(ctx, 1); !errors.Is(err, dbpl.ErrStmtClosed) {
		t.Fatalf("query on a closed statement: %v, want ErrStmtClosed", err)
	}

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stale := &Tx{c: c, id: tx.id}
	if _, err := stale.QueryRows(ctx, `M`); !errors.Is(err, dbpl.ErrTxDone) {
		t.Fatalf("query in a committed transaction: %v, want ErrTxDone", err)
	}
	if err := stale.Rollback(); !errors.Is(err, dbpl.ErrTxDone) {
		t.Fatalf("rollback of a committed transaction: %v, want ErrTxDone", err)
	}
	// The errors are answers, not transport failures: the connection lives.
	if rows, err := c.QueryContext(ctx, `M`); err != nil || rows.Len() != 3 {
		t.Fatalf("connection after sentinel errors: %v", err)
	}
}
