package dbpl

import (
	"errors"
	"fmt"

	"repro/internal/compile"
	"repro/internal/fixpoint"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/relation"
	"repro/internal/typecheck"
	"repro/internal/wal"
)

// ParseError reports a syntax (or lexical) error with its source position.
// Exec, Tx.Exec, Query, and Prepare surface every parse failure as a
// *ParseError, so callers can branch with errors.As without importing
// internal packages.
type ParseError struct {
	Line, Col int
	Msg       string
	err       error
}

// Error implements error.
func (e *ParseError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying lexer/parser error.
func (e *ParseError) Unwrap() error { return e.err }

// Error types re-exported from the internal packages; all surface through
// Exec/Query/Prepare and support errors.As.
type (
	// TypeError is a static type error with position: what Exec, Tx.Exec
	// and Prepare (hence Query, Tx.Query, Explain) report for a text that
	// does not type, before anything is evaluated or written, and what
	// executing a statement reports for an argument of another kind than its
	// parameter's type.
	TypeError = typecheck.Error
	// PositivityError reports a constructor rejected by the positivity
	// constraint of section 3.3; it carries the full occurrence report.
	PositivityError = positivity.Error
	// KeyConflictError reports a violated key constraint: two distinct
	// tuples sharing a key value.
	KeyConflictError = relation.KeyConflictError
	// GuardViolationError reports a tuple rejected by a selector guard on
	// assignment (the paper's conditional-assignment semantics).
	GuardViolationError = compile.GuardViolationError
	// OscillationError reports a non-converging non-monotonic fixpoint
	// iteration (section 3.3's nonsense constructor).
	OscillationError = fixpoint.OscillationError
	// NonMonotonicError reports a shrinking state in an iteration that was
	// declared monotonic.
	NonMonotonicError = fixpoint.NonMonotonicError
	// BoundExceededError reports that the fixpoint round bound was hit
	// before convergence.
	BoundExceededError = fixpoint.BoundExceededError
	// RecoveryError reports a durable database whose write-ahead log holds a
	// checksum-valid record that cannot be applied (true corruption, not a
	// torn tail — torn tails are truncated silently on Open).
	RecoveryError = wal.RecoveryError
	// CorruptSnapshotError reports a durable database whose newest snapshot
	// checkpoint does not load; Open refuses to silently restart empty or
	// roll back to an older generation.
	CorruptSnapshotError = wal.CorruptSnapshotError
)

// ErrReadOnly is the sentinel every degraded-mode write failure matches:
// errors.Is(err, ErrReadOnly) is true exactly when the database refuses
// writes but keeps serving reads. It is never returned directly; failures
// carry a *DegradedError wrapping the I/O fault that caused the degradation.
var ErrReadOnly = errors.New("dbpl: database is read-only")

// DegradedError reports a write refused because the database has degraded to
// read-only mode: an unrecoverable I/O failure (failed WAL append or fsync,
// disk full, un-durable checkpoint rename) poisoned the write-ahead log.
// Reads and queries keep serving the last published state; recovery is to
// Close and re-Open, which replays exactly the committed prefix.
//
// DegradedError matches errors.Is(err, ErrReadOnly), and Unwrap exposes the
// poisoning I/O failure (so errors.Is(err, syscall.ENOSPC) etc. also work).
type DegradedError struct {
	// Cause is the I/O failure that degraded the database.
	Cause error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("dbpl: database degraded to read-only: %v", e.Cause)
}

// Unwrap exposes the poisoning I/O failure.
func (e *DegradedError) Unwrap() error { return e.Cause }

// Is reports ErrReadOnly as a match, making errors.Is(err, ErrReadOnly) the
// portable degraded-mode test.
func (e *DegradedError) Is(target error) bool { return target == ErrReadOnly }

// ErrLimit is the sentinel every resource-limit failure matches:
// errors.Is(err, ErrLimit) is true exactly when an operation was refused
// because a configured cap — today the server's concurrent-session cap
// (dbpld -max-sessions) — would be exceeded. It is never returned directly;
// failures carry a *LimitError naming the exhausted resource.
var ErrLimit = errors.New("dbpl: resource limit exceeded")

// LimitError reports an operation refused by a configured resource cap. The
// operation did not consume anything: releasing held resources (ending a
// session) and retrying is valid.
//
// LimitError matches errors.Is(err, ErrLimit).
type LimitError struct {
	// Resource names the exhausted cap, e.g. "sessions".
	Resource string
	// Limit is the configured cap that would have been exceeded.
	Limit int
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("dbpl: %s limit of %d exceeded", e.Resource, e.Limit)
}

// Is reports ErrLimit as a match, making errors.Is(err, ErrLimit) the
// portable over-limit test.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// ErrStmtClosed is returned by Stmt methods after Close.
var ErrStmtClosed = errors.New("dbpl: statement closed")

// ErrTxDone is returned by Tx methods after Commit or Rollback.
var ErrTxDone = errors.New("dbpl: transaction has already been committed or rolled back")

// ErrClosed is wrapped by mutations attempted on a durable database after
// Close (match with errors.Is).
var ErrClosed = wal.ErrClosed

// wrapErr maps internal error types onto the exported surface. Parse and
// lexical errors become *ParseError; everything else already is (or wraps)
// an exported type and passes through.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *parser.Error
	if errors.As(err, &pe) {
		return &ParseError{Line: pe.Line, Col: pe.Col, Msg: pe.Msg, err: err}
	}
	var le *lexer.Error
	if errors.As(err, &le) {
		return &ParseError{Line: le.Line, Col: le.Col, Msg: le.Msg, err: err}
	}
	return err
}
