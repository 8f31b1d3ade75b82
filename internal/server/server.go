// Package server implements dbpld's network layer: a concurrent TCP server
// exposing the full dbpl session API — Exec, prepared statements with
// positional parameters, queries, snapshot transactions, EXPLAIN, health —
// over the length-prefixed wire protocol of package wire, plus the
// replication endpoints: a primary serves FOLLOW streams off the store's
// log-subscription hook, and a Replica tails such a stream to serve read-only
// queries.
//
// One server wraps one *dbpl.DB (safe for concurrent use); each accepted
// connection is a session with its own prepared statements and transactions.
// A query is answered with its whole result and leaves nothing behind.
// Shutdown drains: new work is refused with the "shutdown" code while open
// transactions may still commit or roll back, until each session is idle or
// the drain deadline forces the connections closed — a result a client sees
// is whole or is an error, never silently truncated.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	dbpl "repro"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/wire"
)

// DefaultFollowBuffer is the per-subscriber channel capacity of a FOLLOW
// stream: how many committed batches a slow replica may lag before the
// primary cuts it off to protect writers (the replica then reconnects and
// re-bootstraps).
const DefaultFollowBuffer = 256

// Options configures a Server.
type Options struct {
	// MaxSessions caps concurrent sessions — connections whose handshake
	// succeeded; further ones are refused with the "limit" error code. 0
	// means unlimited.
	MaxSessions int
	// AuthToken, when non-empty, must be presented by every client in the
	// opening handshake (compared in constant time).
	AuthToken string
	// FollowBuffer is the per-subscriber batch buffer of FOLLOW streams;
	// 0 means DefaultFollowBuffer.
	FollowBuffer int
	// Replica, when non-nil, serves this database as a read-only replica:
	// writes are refused with the "readonly" code and health reports
	// replication progress. The Replica's own applier is the only writer.
	Replica *Replica
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one database over the wire protocol.
type Server struct {
	db   *dbpl.DB
	opts Options

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	// sessions holds every live connection, so Shutdown reaches the ones
	// still in their handshake; admitted counts those past it, which is what
	// MaxSessions caps — a refused handshake never holds a slot.
	sessions map[*session]struct{}
	admitted int
	draining bool
	drainCh  chan struct{}
	wg       sync.WaitGroup
}

// New returns a server over db. The db must outlive the server; Close/
// Shutdown do not close it.
func New(db *dbpl.DB, opts Options) *Server {
	if opts.FollowBuffer <= 0 {
		opts.FollowBuffer = DefaultFollowBuffer
	}
	return &Server{
		db:        db,
		opts:      opts,
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		drainCh:   make(chan struct{}),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown or Close. It
// returns the bound listener through started (if non-nil) before accepting,
// so callers can learn an ephemeral port.
func (s *Server) ListenAndServe(addr string, started chan<- net.Listener) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		if started != nil {
			close(started)
		}
		return err
	}
	if started != nil {
		started <- l
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener is closed (by Shutdown or
// Close). It returns nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// startSession serves one accepted connection; its handshake claims the
// session slot (admit).
func (s *Server) startSession(conn net.Conn) {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.refuse(wire.CodeShutdown, "server is shutting down")
		return
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.sessions, sess)
			if sess.admitted {
				s.admitted--
			}
			s.mu.Unlock()
		}()
		sess.serve()
	}()
}

// admit claims a MaxSessions slot for a connection whose handshake checked
// out; the slot is released when the connection's goroutine ends. Counting
// here rather than at accept means a client refused for a wrong token, which
// has read its error frame before the server is done with the connection,
// cannot find the slot still taken when it reconnects.
func (s *Server) admit(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit := s.opts.MaxSessions; limit > 0 && s.admitted >= limit {
		return &dbpl.LimitError{Resource: "sessions", Limit: limit}
	}
	s.admitted++
	sess.admitted = true
	return nil
}

// Shutdown gracefully drains the server: listeners close immediately, new
// work is refused with the "shutdown" code, and a session stays up while it
// is mid-request or holds an open transaction, which may still commit or roll
// back. A session closes once it is idle. When ctx expires the remaining
// connections are force-closed. Shutdown returns nil
// when every session ended by draining, or ctx.Err() if the deadline forced
// the close.
func (s *Server) Shutdown(ctx context.Context) error {
	// Every live session is draining before anyone can observe the shutdown:
	// startSession's refusal reads draining under s.mu, and the listeners
	// close last. Otherwise a client whose new connection was refused could
	// still get new work accepted on a session beginDrain had not reached.
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	for sess := range s.sessions {
		sess.beginDrain()
	}
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.hardClose()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Sessions reports the number of live connections, handshaken or not (for
// tests and monitoring).
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// codeFor maps a session-API error onto its wire error code.
func codeFor(err error) string {
	switch {
	case errors.Is(err, dbpl.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, dbpl.ErrLimit):
		return wire.CodeLimit
	case errors.Is(err, dbpl.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, dbpl.ErrTxDone):
		return wire.CodeTxDone
	case errors.Is(err, dbpl.ErrStmtClosed):
		return wire.CodeStmtClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeCanceled
	}
	var pe *dbpl.ParseError
	var te *dbpl.TypeError
	var ne *dbpl.PositivityError
	switch {
	case errors.As(err, &pe):
		return wire.CodeParse
	case errors.As(err, &te), errors.As(err, &ne):
		return wire.CodeType
	}
	return wire.CodeInternal
}

// readOnlyError is the replica-mode write refusal; it matches
// errors.Is(err, dbpl.ErrReadOnly) so embedded and remote callers share one
// branch with degraded-mode primaries.
type readOnlyError struct{ op string }

func (e *readOnlyError) Error() string {
	return fmt.Sprintf("dbpld: replica is read-only: %s refused (writes go to the primary)", e.op)
}

func (e *readOnlyError) Is(target error) bool { return target == dbpl.ErrReadOnly }

// replicaModuleError reports whether a module may run on a replica: modules that
// only declare types, selectors, and constructors extend the replica's query
// vocabulary without touching the replicated store, so they are allowed;
// variable declarations and statements (assignment, SHOW side effects aside)
// mutate state owned by the primary and are refused.
func replicaModuleError(src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil // let the session layer report the parse error
	}
	if len(m.Stmts) > 0 {
		return &readOnlyError{op: "module statement"}
	}
	for _, d := range m.Decls {
		if _, isVar := d.(*ast.VarDecl); isVar {
			return &readOnlyError{op: "VAR declaration"}
		}
	}
	return nil
}

// timeoutCtx applies a client-requested per-request timeout (millis, 0 = none).
func timeoutCtx(parent context.Context, millis uint64) (context.Context, context.CancelFunc) {
	if millis == 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, time.Duration(millis)*time.Millisecond)
}

// followState atomically captures a Save-format snapshot of the store plus a
// subscription to every batch committed after it: a follower that loads the
// snapshot and applies the stream sees neither a gap nor an overlap.
func (s *Server) followState() ([]byte, *store.Subscription, error) {
	var buf bytes.Buffer
	sub, err := s.db.StoreSnapshot().Subscribe(&buf, s.opts.FollowBuffer)
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), sub, nil
}
