package server_test

// Integration tests for the network layer: a real dbpld server on a loopback
// listener, a real client.DB over TCP — the full session API, error-code
// fidelity (errors.Is against the dbpl sentinels must hold across the wire),
// the session cap, malformed frames, and the graceful drain.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/server"
	"repro/internal/wire"
)

// boot starts a server over db on a loopback listener and returns its
// address. The server (and its listener) shuts down with the test.
func boot(t *testing.T, db *dbpl.DB, opts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // exits with the listener at cleanup
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

const objModule = `
MODULE m;
TYPE namet  = STRING;
TYPE objrel = RELATION OF RECORD name: namet; size: INTEGER END;
VAR Objs: objrel;
Objs := {<"table", 10>, <"vase", 2>, <"cup", 1>};
END m.
`

func openClient(t *testing.T, addr string, opts ...client.Option) *client.DB {
	t.Helper()
	c, err := client.Open(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSessionAPI(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{})
	c := openClient(t, addr)

	if c.Role() != "primary" {
		t.Fatalf("role = %q, want primary", c.Role())
	}

	// Exec runs a module remotely.
	if _, err := c.ExecContext(ctx, objModule); err != nil {
		t.Fatalf("remote Exec: %v", err)
	}

	rows, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatalf("remote Query: %v", err)
	}
	if got := rows.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "name" || cols[1] != "size" {
		t.Fatalf("Columns = %v", cols)
	}
	seen := map[string]int{}
	for rows.Next() {
		var name string
		var size int
		if err := rows.Scan(&name, &size); err != nil {
			t.Fatal(err)
		}
		seen[name] = size
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen["table"] != 10 || seen["cup"] != 1 {
		t.Fatalf("streamed %v", seen)
	}

	// A result of several batches arrives whole.
	const many = 2*wire.RowsPerBatch + 88
	if _, err := c.ExecContext(ctx, "MODULE n; TYPE numrel = RELATION OF RECORD n: INTEGER END; VAR Nums: numrel; END n."); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < many; i++ {
		if err := db.Insert("Nums", dbpl.NewTuple(dbpl.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	nums, err := c.QueryContext(ctx, `Nums`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for nums.Next() {
		var n int
		if err := nums.Scan(&n); err != nil {
			t.Fatal(err)
		}
		got[n] = true
	}
	if nums.Err() != nil || nums.Len() != many || len(got) != many || !got[0] || !got[many-1] {
		t.Fatalf("%d-tuple result: Len %d, %d distinct, err %v", many, nums.Len(), len(got), nums.Err())
	}

	// Prepared statement with a positional parameter.
	st, err := c.Prepare(`{EACH o IN Objs: o.name = Who}`)
	if err != nil {
		t.Fatalf("remote Prepare: %v", err)
	}
	if params := st.Params(); len(params) != 1 || params[0] != "Who" {
		t.Fatalf("Params = %v", params)
	}
	prows, err := st.QueryRows(ctx, "vase")
	if err != nil {
		t.Fatal(err)
	}
	if prows.Len() != 1 {
		t.Fatalf("param query matched %d tuples, want 1", prows.Len())
	}
	prows.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Transactions: a rollback leaves no trace, a commit publishes.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `
MODULE t1;
Objs := {<"ghost", 0>};
END t1.
`); err != nil {
		t.Fatal(err)
	}
	trows, err := tx.QueryRows(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if trows.Len() != 1 {
		t.Fatalf("tx sees %d tuples, want its own write (1)", trows.Len())
	}
	trows.Close()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, "MODULE t2; END t2."); !errors.Is(err, dbpl.ErrTxDone) {
		t.Fatalf("exec after rollback: %v, want ErrTxDone", err)
	}
	after, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != 3 {
		t.Fatalf("rollback leaked: %d tuples", after.Len())
	}
	after.Close()

	tx2, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(ctx, `
MODULE t3;
Objs := {<"table", 10>, <"vase", 2>, <"cup", 1>, <"lamp", 4>};
END t3.
`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	committed, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if committed.Len() != 4 {
		t.Fatalf("commit lost: %d tuples, want 4", committed.Len())
	}
	committed.Close()

	// Explain returns the optimizer's text plan.
	plan, err := c.Explain(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Objs") {
		t.Fatalf("plan text does not mention the query: %q", plan)
	}

	// Health and Vars.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "primary" || h.Durable {
		t.Fatalf("health = %+v, want memory-only primary", h)
	}
	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0].Name != "Nums" || vars[1].Name != "Objs" || vars[1].Tuples != 4 {
		t.Fatalf("vars = %+v", vars)
	}

	// Error fidelity: a parse error arrives as an error mentioning position,
	// not a broken connection; the connection stays usable after it.
	if _, err := c.QueryContext(ctx, `THIS IS NOT DBPL ((`); err == nil {
		t.Fatal("malformed query succeeded")
	}
	ok, err := c.QueryContext(ctx, `Objs`)
	if err != nil {
		t.Fatalf("connection unusable after a query error: %v", err)
	}
	ok.Close()
}

func TestServerAuthAndSessionCap(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{AuthToken: "sesame", MaxSessions: 1})

	// Wrong token is refused at handshake.
	if _, err := client.Open(addr, client.WithToken("wrong")); err == nil {
		t.Fatal("handshake with a wrong token succeeded")
	}
	// Right token connects.
	c := openClient(t, addr, client.WithToken("sesame"))
	if _, err := c.Exec("MODULE a; END a."); err != nil {
		t.Fatal(err)
	}
	// Second session exceeds the cap with the typed limit error.
	_, err = client.Open(addr, client.WithToken("sesame"))
	if !errors.Is(err, dbpl.ErrLimit) {
		t.Fatalf("session over cap: %v, want errors.Is ErrLimit", err)
	}
	// Freeing the slot admits a new session. The server unregisters the
	// session moments after the client sees the close, so poll briefly.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := client.Open(addr, client.WithToken("sesame"))
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after Close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRefusedHandshakeHoldsNoSlot: a handshake refused for a wrong
// token never counts against MaxSessions, so a client that reconnects the
// moment it has read the refusal — before the server is done with the refused
// connection — is admitted. Waiting out the right-token session's own close
// is the only synchronization; every Open in between is immediate.
func TestServerRefusedHandshakeHoldsNoSlot(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, addr := boot(t, db, server.Options{AuthToken: "sesame", MaxSessions: 1})
	for i := 0; i < 100; i++ {
		if _, err := client.Open(addr, client.WithToken("wrong")); err == nil || errors.Is(err, dbpl.ErrLimit) {
			t.Fatalf("round %d: wrong token: %v, want an authentication refusal", i, err)
		}
		c, err := client.Open(addr, client.WithToken("sesame"))
		if err != nil {
			t.Fatalf("round %d: right token after a refused handshake: %v", i, err)
		}
		c.Close()
		for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d connection(s) still registered after Close", i, srv.Sessions())
			}
		}
	}
}

// TestServerSurvivesHugeCounts: a query frame whose argument count claims
// 1<<62 scalars costs the sender its own connection and nothing else. The
// count is checked against the bytes left before anything is allocated from
// it, so the server neither panics nor tries the allocation, and a new client
// still gets answers.
func TestServerSurvivesHugeCounts(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	_, addr := boot(t, db, server.Options{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := wire.ClientHello(conn, br, ""); err != nil {
		t.Fatal(err)
	}
	e := wire.NewEnc()
	e.Str("Objs")
	e.Uvarint(0)       // no timeout
	e.Uvarint(1 << 62) // argument count, and no arguments
	payload, err := e.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TQuery, payload); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err == nil {
		t.Fatalf("malformed query answered with frame type %d; want the connection closed", typ)
	}

	c := openClient(t, addr)
	rows, err := c.QueryContext(context.Background(), `Objs`)
	if err != nil || rows.Len() != 3 {
		t.Fatalf("query after a malformed frame: %v", err)
	}
}

// holdTx opens a client and a transaction on it that has overwritten Objs
// with four tuples, not yet committed.
func holdTx(t *testing.T, addr string) (*client.DB, *client.Tx) {
	t.Helper()
	ctx := context.Background()
	c := openClient(t, addr)
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `MODULE w; Objs := {<"table", 10>, <"vase", 2>, <"cup", 1>, <"lamp", 4>}; END w.`); err != nil {
		t.Fatal(err)
	}
	return c, tx
}

// awaitRefusal polls until the server refuses new connections, which it does
// only once every live session is draining.
func awaitRefusal(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := client.Open(addr)
		if err != nil {
			return
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted during drain")
		}
	}
}

// TestServerGracefulDrain: a session holding an open transaction stays up
// through Shutdown. New connections are refused, the transaction's Commit
// goes through and its write lands, and then the server ends the session.
func TestServerGracefulDrain(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	srv, addr := boot(t, db, server.Options{})
	_, tx := holdTx(t, addr)

	done := make(chan error, 1)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { done <- srv.Shutdown(sctx) }()
	awaitRefusal(t, addr)

	if err := tx.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if rel, err := db.Query(`Objs`); err != nil || rel.Len() != 4 {
		t.Fatalf("the commit during drain did not land: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("%d sessions survived the drain", got)
	}
}

// TestServerDrainRefusesNewWork: once the drain has reached a session, every
// new request on it is refused with the shutdown code — queries, modules and
// work inside the open transaction — while the transaction can still commit.
// The commit ends the session.
func TestServerDrainRefusesNewWork(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	srv, addr := boot(t, db, server.Options{})
	c, tx := holdTx(t, addr)

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(sctx) }()
	awaitRefusal(t, addr)

	for name, run := range map[string]func() error{
		"Exec":     func() error { _, err := c.ExecContext(ctx, "MODULE x; END x."); return err },
		"Query":    func() error { _, err := c.QueryContext(ctx, `Objs`); return err },
		"Tx.Query": func() error { _, err := tx.QueryRows(ctx, `Objs`); return err },
		"Tx.Exec":  func() error { _, err := tx.Exec(ctx, "MODULE x; END x."); return err },
	} {
		var re *wire.RemoteError
		if err := run(); !errors.As(err, &re) || re.Code != wire.CodeShutdown {
			t.Errorf("%s during drain: %v, want the shutdown refusal", name, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := c.ExecContext(ctx, "MODULE x; END x."); err == nil {
		t.Fatal("the session outlived its last transaction in the drain")
	}
}

// TestServerDrainIgnoresUnreadRows: a client that holds a query result it
// never iterates holds nothing on the server, so Shutdown ends its session at
// once. The rows are the client's: they still iterate after the server is
// gone.
func TestServerDrainIgnoresUnreadRows(t *testing.T) {
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(objModule); err != nil {
		t.Fatal(err)
	}
	srv, addr := boot(t, db, server.Options{})
	c := openClient(t, addr)
	rows, err := c.QueryContext(context.Background(), `Objs`)
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown with an unread result: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown took %v with an unread result", d)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if rows.Err() != nil || n != 3 {
		t.Fatalf("unread result after Shutdown: %d of 3 tuples, err %v", n, rows.Err())
	}
}

// TestTypeErrorsCrossTheWire: a statement the static check rejects comes back
// as the "type" error code — the client's mistake, not a server fault — from
// Prepare, Query and a transaction's Exec alike, and the session and the
// transaction it happened in stay usable.
func TestTypeErrorsCrossTheWire(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := boot(t, db, server.Options{})
	c := openClient(t, addr)
	if _, err := c.ExecContext(ctx, objModule); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Prepare": func() error { _, err := c.Prepare(`{EACH o IN Objs: o.size = "big"}`); return err },
		"Query":   func() error { _, err := c.QueryContext(ctx, `{EACH o IN Objs: o.nosuch = 1}`); return err },
		"bind": func() error {
			st, err := c.Prepare(`{EACH o IN Objs: o.size = N}`)
			if err != nil {
				return fmt.Errorf("well-typed Prepare: %w", err)
			}
			_, err = st.QueryRows(ctx, "ten")
			return err
		},
		"Tx.Exec": func() error {
			_, err := tx.Exec(ctx, `MODULE w; Objs := {<"ghost", 0>}; Objs := {EACH o IN Objs: q.size = 1}; END w.`)
			return err
		},
		"Exec (positivity)": func() error {
			_, err := c.ExecContext(ctx, `MODULE n;
CONSTRUCTOR nonsense FOR Rel: objrel (): objrel;
BEGIN EACH o IN Rel: NOT (o IN Rel{nonsense}) END nonsense;
END n.`)
			return err
		},
	} {
		var re *wire.RemoteError
		if err := run(); !errors.As(err, &re) || re.Code != wire.CodeType {
			t.Errorf("%s: %v, want wire error code %q", name, err, wire.CodeType)
		}
	}
	// Nothing of the rejected transaction module ran, and both handles work on.
	if _, err := tx.Exec(ctx, `MODULE w; Objs := {<"lamp", 4>}; END w.`); err != nil {
		t.Fatalf("transaction after a type error: %v", err)
	}
	rows, err := tx.QueryRows(ctx, `Objs`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Errorf("transaction sees %d tuples, want its one write", rows.Len())
	}
	rows.Close()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := c.QueryContext(ctx, `{EACH o IN Objs: o.size = 4}`)
	if err != nil {
		t.Fatalf("session after type errors: %v", err)
	}
	if after.Len() != 1 {
		t.Errorf("committed state has %d matching tuples, want 1", after.Len())
	}
	after.Close()
}
