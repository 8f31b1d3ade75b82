package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/wal"
	"repro/internal/wire"
)

// session is one client connection. The protocol is strict request/response,
// so a single goroutine owns the read loop, the dispatch, and the response
// writes; stateMu exists only for the drain handshake with Shutdown, which
// runs on another goroutine and needs a consistent view of "is this session
// idle" (no open transactions, not mid-request).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// ctx is canceled by hardClose; per-request contexts derive from it.
	ctx    context.Context
	cancel context.CancelFunc

	// admitted reports a claimed MaxSessions slot; guarded by srv.mu.
	admitted bool

	stateMu  sync.Mutex
	busy     bool // mid-request on the session goroutine
	draining bool // Shutdown observed: refuse new work, finish open work
	closed   bool

	nextID uint64
	stmts  map[uint64]*dbpl.Stmt
	txs    map[uint64]*dbpl.Tx
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv:    s,
		conn:   conn,
		br:     bufio.NewReader(conn),
		bw:     bufio.NewWriter(conn),
		ctx:    ctx,
		cancel: cancel,
		stmts:  make(map[uint64]*dbpl.Stmt),
		txs:    make(map[uint64]*dbpl.Tx),
	}
}

// refuse rejects a connection the server will not serve: one error frame,
// then close. The client's handshake read surfaces it as a *RemoteError.
func (s *session) refuse(code, msg string) {
	// Consume the client's hello before answering: refusals happen before the
	// handshake, and closing while the hello is still in flight would reset
	// the connection and discard the buffered error frame.
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	wire.ReadFrame(s.br) //nolint:errcheck // best effort; the refusal follows regardless
	wire.WriteFrame(s.bw, wire.TErr, wire.EncodeErr(code, msg))
	s.bw.Flush()
	s.conn.Close()
	s.cancel()
}

// beginDrain is Shutdown's entry point: refuse new work from now on, and if
// the session is already idle — not mid-request, no open transaction — close
// it immediately (waking a read blocked on the next request).
func (s *session) beginDrain() {
	s.stateMu.Lock()
	s.draining = true
	idle := !s.busy && len(s.txs) == 0
	s.stateMu.Unlock()
	if idle {
		s.hardClose()
	}
}

// hardClose force-terminates the session: cancel in-flight work and close the
// socket. The session goroutine's read fails and its cleanup runs.
func (s *session) hardClose() {
	s.stateMu.Lock()
	already := s.closed
	s.closed = true
	s.stateMu.Unlock()
	if already {
		return
	}
	s.cancel()
	s.conn.Close()
}

// role reports what this server announces in the handshake and in health.
func (s *session) role() string {
	if s.srv.opts.Replica != nil {
		return "replica"
	}
	return "primary"
}

// serve runs the session to completion: handshake, then the request loop.
func (s *session) serve() {
	defer func() {
		s.hardClose()
		// Release everything the client left open: transactions roll back
		// their overlays, statements last.
		for id, tx := range s.txs {
			tx.Rollback()
			delete(s.txs, id)
		}
		for id, st := range s.stmts {
			st.Close()
			delete(s.stmts, id)
		}
	}()

	if err := s.handshake(); err != nil {
		s.srv.logf("dbpld: %s: handshake: %v", s.conn.RemoteAddr(), err)
		return
	}

	for {
		typ, payload, err := wire.ReadFrame(s.br)
		if err != nil {
			return // client went away (or drain/hardClose closed the socket)
		}
		s.stateMu.Lock()
		if s.closed {
			s.stateMu.Unlock()
			return
		}
		draining := s.draining
		s.busy = true
		s.stateMu.Unlock()

		if draining && !drainAllowed(typ) {
			err = s.respondErr(wire.CodeShutdown, errors.New("dbpld: server is shutting down; no new work"))
		} else {
			err = s.dispatch(typ, payload)
		}

		s.stateMu.Lock()
		s.busy = false
		done := s.draining && len(s.txs) == 0
		s.stateMu.Unlock()
		if err != nil {
			s.srv.logf("dbpld: %s: %v", s.conn.RemoteAddr(), err)
			return
		}
		if done {
			return // drained: last transaction ended, hang up
		}
	}
}

// drainAllowed lists the operations a draining server still serves: anything
// that finishes open work (ending transactions, closing statements) plus
// read-only introspection.
func drainAllowed(typ byte) bool {
	switch typ {
	case wire.TStmtClose, wire.TTxCommit, wire.TTxRollback,
		wire.THealth, wire.TVars:
		return true
	}
	return false
}

// handshake validates THello (magic, version, constant-time token compare)
// and answers TServerHello with the serving role.
func (s *session) handshake() error {
	typ, payload, err := wire.ReadFrame(s.br)
	if err != nil {
		return err
	}
	if typ != wire.THello {
		s.respondErr(wire.CodeProto, fmt.Errorf("expected hello, got frame type %d", typ))
		return fmt.Errorf("expected THello, got %d", typ)
	}
	d := wire.NewDec(payload)
	magic, err := d.Str()
	if err != nil {
		return err
	}
	version, err := d.Uvarint()
	if err != nil {
		return err
	}
	token, err := d.Str()
	if err != nil {
		return err
	}
	if magic != wire.ProtoMagic {
		s.respondErr(wire.CodeProto, errors.New("dbpld: not a dbpl wire client"))
		return errors.New("bad magic")
	}
	if version != wire.ProtoVersion {
		s.respondErr(wire.CodeProto, fmt.Errorf("dbpld: protocol version %d not supported (server speaks %d)", version, wire.ProtoVersion))
		return errors.New("bad version")
	}
	if want := s.srv.opts.AuthToken; want != "" {
		if subtle.ConstantTimeCompare([]byte(token), []byte(want)) != 1 {
			s.respondErr(wire.CodeAuth, errors.New("dbpld: authentication failed"))
			return errors.New("bad token")
		}
	}
	if err := s.srv.admit(s); err != nil {
		s.respondErr(wire.CodeLimit, err)
		return err
	}
	e := wire.NewEnc()
	e.Str(s.role())
	return s.respond(wire.TServerHello, e)
}

// respond writes one response frame and flushes.
func (s *session) respond(typ byte, e *wire.Enc) error {
	if err := s.send(typ, e); err != nil {
		return err
	}
	return s.bw.Flush()
}

// send writes one frame without flushing.
func (s *session) send(typ byte, e *wire.Enc) error {
	payload, err := e.Payload()
	if err != nil {
		return err
	}
	return wire.WriteFrame(s.bw, typ, payload)
}

// respondRows answers a query with its error, or with its whole result: a
// TRowsHeader with the column names and the total, then TRowsBatch frames of
// at most wire.RowsPerBatch tuples, the last one marked done. Nothing of the
// query stays with the session.
func (s *session) respondRows(rel *dbpl.Relation, err error) error {
	if err != nil {
		return s.respondErr("", err)
	}
	attrs := rel.Type().Element.Attrs
	left := rel.Len()
	e := wire.NewEnc()
	e.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		e.Str(a.Name)
	}
	e.Uvarint(uint64(left))
	if err := s.send(wire.TRowsHeader, e); err != nil {
		return err
	}
	// A batch's count comes first, so each batch starts with what is left.
	newBatch := func() *wire.Enc {
		e := wire.NewEnc()
		e.Uvarint(uint64(min(left, wire.RowsPerBatch)))
		return e
	}
	e, n := newBatch(), 0
	for t := range rel.All() {
		for _, v := range t {
			e.Value(v)
		}
		left--
		if n++; n == wire.RowsPerBatch && left > 0 {
			e.Bool(false)
			if err := s.send(wire.TRowsBatch, e); err != nil {
				return err
			}
			e, n = newBatch(), 0
		}
	}
	e.Bool(true)
	return s.respond(wire.TRowsBatch, e)
}

// respondErr maps err onto a TErr frame. A nil code picks one with codeFor.
func (s *session) respondErr(code string, err error) error {
	if code == "" {
		code = codeFor(err)
	}
	if werr := wire.WriteFrame(s.bw, wire.TErr, wire.EncodeErr(code, err.Error())); werr != nil {
		return werr
	}
	return s.bw.Flush()
}

// ok answers with an empty TOK frame.
func (s *session) ok() error {
	if err := wire.WriteFrame(s.bw, wire.TOK, nil); err != nil {
		return err
	}
	return s.bw.Flush()
}

// dispatch handles one request frame. It returns an error only for transport
// failures — session-API errors go back to the client as TErr and the
// connection lives on.
func (s *session) dispatch(typ byte, payload []byte) error {
	d := wire.NewDec(payload)
	switch typ {
	case wire.TExec:
		return s.handleExec(d)
	case wire.TQuery:
		return s.handleQuery(d)
	case wire.TPrepare:
		return s.handlePrepare(d)
	case wire.TStmtQuery:
		return s.handleStmtQuery(d)
	case wire.TStmtClose:
		return s.handleStmtClose(d)
	case wire.TBegin:
		return s.handleBegin()
	case wire.TTxExec:
		return s.handleTxExec(d)
	case wire.TTxQuery:
		return s.handleTxQuery(d)
	case wire.TTxCommit:
		return s.handleTxEnd(d, true)
	case wire.TTxRollback:
		return s.handleTxEnd(d, false)
	case wire.TExplain:
		return s.handleExplain(d)
	case wire.THealth:
		return s.handleHealth()
	case wire.TVars:
		return s.handleVars()
	case wire.TFollow:
		return s.handleFollow()
	default:
		return s.respondErr(wire.CodeProto, fmt.Errorf("dbpld: unexpected frame type %d", typ))
	}
}

// decodeArgs reads a count followed by that many scalars.
func decodeArgs(d *wire.Dec) ([]any, error) {
	n, err := d.Count(wire.MinValueLen)
	if err != nil {
		return nil, err
	}
	args := make([]any, 0, n)
	for range n {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func (s *session) handleExec(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	if s.srv.opts.Replica != nil {
		if roErr := replicaModuleError(src); roErr != nil {
			return s.respondErr("", roErr)
		}
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	out, err := s.srv.db.ExecContext(ctx, src)
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(out)
	return s.respond(wire.TExecResult, e)
}

func (s *session) handleQuery(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	st, err := s.srv.db.Prepare(src)
	if err != nil {
		return s.respondErr("", err)
	}
	defer st.Close()
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	return s.respondRows(st.Query(ctx, args...))
}

func (s *session) handlePrepare(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	st, err := s.srv.db.Prepare(src)
	if err != nil {
		return s.respondErr("", err)
	}
	s.nextID++
	id := s.nextID
	s.stmts[id] = st
	params := st.Params()
	e := wire.NewEnc()
	e.Uvarint(id)
	e.Uvarint(uint64(len(params)))
	for _, p := range params {
		e.Str(p)
	}
	return s.respond(wire.TPrepared, e)
}

func (s *session) handleStmtQuery(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	st, ok := s.stmts[id]
	if !ok {
		return s.respondErr("", dbpl.ErrStmtClosed)
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	return s.respondRows(st.Query(ctx, args...))
}

func (s *session) handleStmtClose(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	if st, ok := s.stmts[id]; ok {
		st.Close()
		delete(s.stmts, id)
	}
	return s.ok()
}

func (s *session) handleBegin() error {
	if s.srv.opts.Replica != nil {
		return s.respondErr("", &readOnlyError{op: "BEGIN"})
	}
	tx, err := s.srv.db.Begin(s.ctx)
	if err != nil {
		return s.respondErr("", err)
	}
	s.nextID++
	id := s.nextID
	s.stateMu.Lock()
	s.txs[id] = tx
	s.stateMu.Unlock()
	e := wire.NewEnc()
	e.Uvarint(id)
	return s.respond(wire.TTxBegun, e)
}

func (s *session) tx(id uint64) (*dbpl.Tx, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	tx, ok := s.txs[id]
	return tx, ok
}

func (s *session) handleTxExec(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	out, err := tx.Exec(ctx, src)
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(out)
	return s.respond(wire.TExecResult, e)
}

func (s *session) handleTxQuery(d *wire.Dec) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	src, err := d.Str()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	args, err := decodeArgs(d)
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	return s.respondRows(tx.Query(ctx, src, args...))
}

func (s *session) handleTxEnd(d *wire.Dec, commit bool) error {
	id, err := d.Uvarint()
	if err != nil {
		return err
	}
	tx, ok := s.tx(id)
	if !ok {
		return s.respondErr("", dbpl.ErrTxDone)
	}
	if commit {
		err = tx.Commit()
	} else {
		err = tx.Rollback()
	}
	if err != nil {
		// A failed guard re-check leaves the transaction open on purpose
		// (the client may fix the write and retry Commit), so only a
		// completed end releases the server-held handle.
		return s.respondErr("", err)
	}
	s.stateMu.Lock()
	delete(s.txs, id)
	s.stateMu.Unlock()
	return s.ok()
}

func (s *session) handleExplain(d *wire.Dec) error {
	src, err := d.Str()
	if err != nil {
		return err
	}
	analyze, err := d.Bool()
	if err != nil {
		return err
	}
	millis, err := d.Uvarint()
	if err != nil {
		return err
	}
	ctx, cancel := timeoutCtx(s.ctx, millis)
	defer cancel()
	var plan *dbpl.Plan
	if analyze {
		plan, err = s.srv.db.ExplainQuery(ctx, src)
	} else {
		plan, err = s.srv.db.Explain(ctx, src)
	}
	if err != nil {
		return s.respondErr("", err)
	}
	e := wire.NewEnc()
	e.Str(plan.Text())
	return s.respond(wire.TExplainText, e)
}

func (s *session) handleHealth() error {
	dh := s.srv.db.Health()
	h := wire.Health{
		Role:        s.role(),
		Durable:     dh.Durable,
		Degraded:    dh.Degraded,
		Generation:  dh.Generation,
		Tail:        uint64(dh.TailRecords),
		Parallelism: uint64(s.srv.db.Parallelism()),
	}
	if dh.Cause != nil {
		h.Cause = dh.Cause.Error()
	}
	if mv := dh.MatViews; mv.Enabled {
		h.MatEnabled = true
		h.MatEntries = uint64(mv.Entries)
		h.MatHits = mv.Hits
		h.MatMisses = mv.Misses
		h.MatMaintained = mv.Maintained
		h.MatBacklog = uint64(mv.Backlog)
	}
	if r := s.srv.opts.Replica; r != nil {
		st := r.Status()
		h.Applied = st.Applied
		h.Connected = st.Connected
		if st.LastErr != nil {
			h.StreamErr = st.LastErr.Error()
		}
	}
	if err := wire.WriteFrame(s.bw, wire.THealthInfo, h.Encode()); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) handleVars() error {
	st := s.srv.db.StoreSnapshot()
	names := st.Names()
	e := wire.NewEnc()
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		n := 0
		if rel, ok := st.Get(name); ok {
			n = rel.Len()
		}
		e.Str(name)
		e.Uvarint(uint64(n))
	}
	return s.respond(wire.TVarsInfo, e)
}

// handleFollow flips the connection into a replication stream: the
// Subscribe-time snapshot as TFollowSnap, then one TFollowBatch per committed
// batch, until the client disconnects, the server drains, or the subscriber
// falls behind the FollowBuffer (the stream ends with a "behind" error and
// the follower reconnects to re-bootstrap — the same path that catches up
// over a checkpoint that compacted the log).
func (s *session) handleFollow() error {
	snap, sub, err := s.srv.followState()
	if err != nil {
		return s.respondErr("", err)
	}
	defer sub.Close()
	if err := wire.WriteFrame(s.bw, wire.TFollowSnap, snap); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	// The session goroutine now blocks on committed batches instead of
	// request frames; a client that hangs up is noticed by the failing
	// write, a drain by drainCh.
	for {
		select {
		case batch, live := <-sub.C:
			if !live {
				return s.respondErr(wire.CodeBehind, fmt.Errorf("dbpld: follower fell more than %d batches behind; reconnect to re-bootstrap", s.srv.opts.FollowBuffer))
			}
			payload, err := wal.EncodeBatch(batch)
			if err != nil {
				return s.respondErr(wire.CodeInternal, err)
			}
			if err := wire.WriteFrame(s.bw, wire.TFollowBatch, payload); err != nil {
				return err
			}
			if err := s.bw.Flush(); err != nil {
				return err
			}
		case <-s.srv.drainCh:
			return s.respondErr(wire.CodeShutdown, errors.New("dbpld: server is shutting down"))
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}
