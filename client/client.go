// Package client is the network counterpart of the embedded dbpl API: a
// client.DB speaks the dbpld wire protocol and mirrors dbpl.DB method for
// method — Exec, Prepare/Stmt with positional parameters, Rows,
// Begin/Tx, Explain, Health — so moving a program between an embedded
// database and a dbpld server is a one-constructor switch (dbpl.Open ↔
// client.Open). Sentinel errors survive the wire: errors.Is(err,
// dbpl.ErrReadOnly), dbpl.ErrLimit, dbpl.ErrClosed, dbpl.ErrTxDone, and
// dbpl.ErrStmtClosed hold against a remote database exactly as against an
// embedded one.
//
// A DB owns one connection, and the protocol is strict request/response, so
// methods serialize on an internal mutex; open one DB per goroutine-heavy
// worker (connections are cheap) rather than sharing a single one under
// contention. A query's whole result arrives with its answer, in one
// exchange: Rows iterate tuples the client already holds.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/value"
	"repro/internal/wire"
)

// Option configures Open.
type Option func(*config)

type config struct {
	token string
}

// dialTimeout bounds the TCP connect of Open.
const dialTimeout = 5 * time.Second

// WithToken presents an auth token during the handshake.
func WithToken(token string) Option { return func(c *config) { c.token = token } }

// DB is a connection to a dbpld server, mirroring the embedded dbpl.DB.
type DB struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	role   string
	closed bool
}

// Open dials a dbpld server and performs the protocol handshake.
func Open(addr string, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(conn)
	role, err := wire.ClientHello(conn, br, cfg.token)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &DB{conn: conn, br: br, bw: bufio.NewWriter(conn), role: role}, nil
}

// Role reports what the server announced in the handshake: "primary" or
// "replica".
func (c *DB) Role() string { return c.role }

// Close hangs up. Server-held state of this session (statements, open
// transactions) is released by the server on disconnect — transactions
// roll back.
func (c *DB) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// exchange runs one request/response round trip. TErr responses come back as
// *wire.RemoteError (carrying the sentinel mapping); any transport failure
// poisons the connection.
func (c *DB) exchange(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, error) {
	var resp []byte
	err := c.converse(ctx, typ, payload, want, func(p []byte) error {
		resp = p
		return nil
	})
	return resp, err
}

// query runs a query request. Its answer is a TRowsHeader and the row batches
// after it, all read in the same exchange.
func (c *DB) query(ctx context.Context, typ byte, payload []byte) (*Rows, error) {
	var rows *Rows
	err := c.converse(ctx, typ, payload, wire.TRowsHeader, func(header []byte) (err error) {
		rows, err = readRows(ctx, c.br, header)
		return err
	})
	return rows, err
}

// converse sends one request and hands a response of type want to read,
// under the connection lock and the ctx deadline. A failure of read, like
// any transport failure, poisons the connection.
func (c *DB) converse(ctx context.Context, typ byte, payload []byte, want byte, read func([]byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return dbpl.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{})
	}
	rtyp, resp, err := c.roundTrip(typ, payload)
	switch {
	case err != nil:
	case rtyp == wire.TErr:
		// The server refused the request; the connection stays usable.
		return wire.AsRemote(resp)
	case rtyp != want:
		err = fmt.Errorf("client: expected frame type %d, got %d", want, rtyp)
	default:
		err = read(resp)
	}
	if err != nil {
		// The exchange died mid-flight; the stream position is unknown, so
		// the connection cannot be trusted for another frame.
		c.closed = true
		c.conn.Close()
	}
	return err
}

// roundTrip writes one request and reads the first frame of its response.
func (c *DB) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return wire.ReadFrame(c.br)
}

// millisLeft converts a context deadline into the wire's timeout field.
func millisLeft(ctx context.Context) uint64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return uint64(ms)
}

// encodeArgs appends the positional-argument block (count + scalars).
func encodeArgs(e *wire.Enc, args []any) error {
	e.Uvarint(uint64(len(args)))
	for _, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return err
		}
		e.Value(v)
	}
	return nil
}

// Exec runs a DBPL module on the server, returning its SHOW output.
func (c *DB) Exec(src string) (string, error) {
	return c.ExecContext(context.Background(), src)
}

// ExecContext is Exec with cancellation; the deadline also bounds server-side
// execution.
func (c *DB) ExecContext(ctx context.Context, src string) (string, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := c.exchange(ctx, wire.TExec, payload, wire.TExecResult)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// QueryContext evaluates a query, returning its rows. Positional
// parameters ($1, $2, …) bind from args as in the embedded API.
func (c *DB) QueryContext(ctx context.Context, src string, args ...any) (*Rows, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	return c.query(ctx, wire.TQuery, payload)
}

// Query is QueryContext without cancellation.
func (c *DB) Query(src string, args ...any) (*Rows, error) {
	return c.QueryContext(context.Background(), src, args...)
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c      *DB
	id     uint64
	params []string
	closed bool
}

// Prepare parses and plans a query on the server, returning a reusable
// statement handle.
func (c *DB) Prepare(src string) (*Stmt, error) {
	e := wire.NewEnc()
	e.Str(src)
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	resp, err := c.exchange(context.Background(), wire.TPrepare, payload, wire.TPrepared)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp)
	id, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	n, err := d.Count(1)
	if err != nil {
		return nil, err
	}
	params := make([]string, n)
	for i := range params {
		if params[i], err = d.Str(); err != nil {
			return nil, err
		}
	}
	return &Stmt{c: c, id: id, params: params}, nil
}

// Params returns the statement's parameter names in positional order.
func (s *Stmt) Params() []string { return s.params }

// QueryRows executes the statement with positional args, returning its rows.
func (s *Stmt) QueryRows(ctx context.Context, args ...any) (*Rows, error) {
	if s.closed {
		return nil, dbpl.ErrStmtClosed
	}
	e := wire.NewEnc()
	e.Uvarint(s.id)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	return s.c.query(ctx, wire.TStmtQuery, payload)
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	e := wire.NewEnc()
	e.Uvarint(s.id)
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	_, err = s.c.exchange(context.Background(), wire.TStmtClose, payload, wire.TOK)
	return err
}

// Tx is a server-side snapshot transaction.
type Tx struct {
	c    *DB
	id   uint64
	done bool
}

// Begin starts a transaction on the server. Replicas refuse with
// dbpl.ErrReadOnly.
func (c *DB) Begin(ctx context.Context) (*Tx, error) {
	resp, err := c.exchange(ctx, wire.TBegin, nil, wire.TTxBegun)
	if err != nil {
		return nil, err
	}
	id, err := wire.NewDec(resp).Uvarint()
	if err != nil {
		return nil, err
	}
	return &Tx{c: c, id: id}, nil
}

// Exec runs module statements inside the transaction, returning SHOW output.
func (t *Tx) Exec(ctx context.Context, src string) (string, error) {
	if t.done {
		return "", dbpl.ErrTxDone
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := t.c.exchange(ctx, wire.TTxExec, payload, wire.TExecResult)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// QueryRows evaluates a query against the transaction's view.
func (t *Tx) QueryRows(ctx context.Context, src string, args ...any) (*Rows, error) {
	if t.done {
		return nil, dbpl.ErrTxDone
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	e.Str(src)
	e.Uvarint(millisLeft(ctx))
	if err := encodeArgs(e, args); err != nil {
		return nil, err
	}
	payload, err := e.Payload()
	if err != nil {
		return nil, err
	}
	return t.c.query(ctx, wire.TTxQuery, payload)
}

func (t *Tx) end(commit bool) error {
	if t.done {
		return dbpl.ErrTxDone
	}
	typ := wire.TTxRollback
	if commit {
		typ = wire.TTxCommit
	}
	e := wire.NewEnc()
	e.Uvarint(t.id)
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	if _, err := t.c.exchange(context.Background(), typ, payload, wire.TOK); err != nil {
		// A failed commit (e.g. a guard re-check) leaves the transaction
		// open on the server, mirroring the embedded semantics: the caller
		// may fix the offending write and retry, or Rollback.
		return err
	}
	t.done = true
	return nil
}

// Commit publishes the transaction's writes atomically.
func (t *Tx) Commit() error { return t.end(true) }

// Rollback discards the transaction's writes.
func (t *Tx) Rollback() error { return t.end(false) }

// Explain returns the server's rendered query plan.
func (c *DB) Explain(ctx context.Context, src string) (string, error) {
	return c.explain(ctx, src, false)
}

// ExplainAnalyze plans and executes the query, returning the plan annotated
// with runtime statistics.
func (c *DB) ExplainAnalyze(ctx context.Context, src string) (string, error) {
	return c.explain(ctx, src, true)
}

func (c *DB) explain(ctx context.Context, src string, analyze bool) (string, error) {
	e := wire.NewEnc()
	e.Str(src)
	e.Bool(analyze)
	e.Uvarint(millisLeft(ctx))
	payload, err := e.Payload()
	if err != nil {
		return "", err
	}
	resp, err := c.exchange(ctx, wire.TExplain, payload, wire.TExplainText)
	if err != nil {
		return "", err
	}
	return wire.NewDec(resp).Str()
}

// Health is the server's health report: durability state plus, for replicas,
// replication progress.
type Health struct {
	// Role is "primary" or "replica".
	Role string
	// Durable/Degraded/Cause/Generation/Tail mirror dbpl.Health on the
	// server's database.
	Durable    bool
	Degraded   bool
	Cause      string
	Generation uint64
	Tail       uint64
	// Applied, Connected, and StreamErr describe a replica's tail of the
	// primary; zero-valued on a primary.
	Applied   uint64
	Connected bool
	StreamErr string
	// Parallelism is how many equations of a fixpoint round the server
	// evaluates at once (dbpld -parallel).
	Parallelism uint64
	// Materialized-view cache state on the server: enabled flag, live
	// entries, read outcome counters, and queued-delta maintenance backlog.
	MatEnabled    bool
	MatEntries    uint64
	MatHits       uint64
	MatMisses     uint64
	MatMaintained uint64
	MatBacklog    uint64
}

// Health asks the server for its health report.
func (c *DB) Health(ctx context.Context) (Health, error) {
	resp, err := c.exchange(ctx, wire.THealth, nil, wire.THealthInfo)
	if err != nil {
		return Health{}, err
	}
	wh, err := wire.DecodeHealth(resp)
	if err != nil {
		return Health{}, err
	}
	return Health(wh), nil
}

// VarInfo describes one relation variable on the server.
type VarInfo struct {
	Name   string
	Tuples int
}

// Vars lists the server's relation variables and their cardinalities.
func (c *DB) Vars(ctx context.Context) ([]VarInfo, error) {
	resp, err := c.exchange(ctx, wire.TVars, nil, wire.TVarsInfo)
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp)
	n, err := d.Count(2)
	if err != nil {
		return nil, err
	}
	vars := make([]VarInfo, n)
	for i := range vars {
		if vars[i].Name, err = d.Str(); err != nil {
			return nil, err
		}
		count, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		vars[i].Tuples = int(count)
	}
	return vars, nil
}
