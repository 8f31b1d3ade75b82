package dbpl

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/parser"
	"repro/internal/store"
)

// Tx is a snapshot transaction over the database's relation variables: reads
// see the state as of Begin plus the transaction's own writes, queries
// evaluate against that view, and Commit publishes all writes atomically
// (Rollback discards them). It is a thin wrapper over the store's overlay
// transaction; declarations are not transactional — execute modules that
// declare types, selectors, or constructors with DB.Exec before Begin.
//
// A guarded assignment (`Infront[refint] := rex`) holds iff rex[refint] = rex:
// the selector applied to rex, with its FOR variable bound to rex. It is
// checked twice: at write time against the transaction's state then, and
// again at Commit against the transaction's final state — a later write
// inside the transaction may have invalidated a guard whose predicate
// references another relation, and the commit-time re-check keeps the
// paper's conditional-assignment semantics over the state that actually
// becomes visible. A failed commit check leaves the transaction open, so the
// caller can correct the offending write or Rollback.
//
// A Tx is not safe for concurrent use by multiple goroutines.
type Tx struct {
	db *DB
	tx *store.Tx

	mu   sync.Mutex
	done bool
	// guards records, per written variable, the selector suffixes its latest
	// assignment passed: Commit re-applies them to the state that actually
	// becomes visible.
	guards map[string][]ast.Suffix
}

// Begin starts a transaction over a stable snapshot of the relation
// variables.
func (d *DB) Begin(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tx, err := d.store().Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{db: d, tx: tx, guards: make(map[string][]ast.Suffix)}, nil
}

// Exec runs a DBPL module's statements (SHOW and assignment, including
// guarded assignment) inside the transaction, returning the SHOW output.
// Like DB.Exec it type-checks every statement before running the first, so an
// ill-typed module fails with a *TypeError and writes nothing. Writes land in
// the transaction's overlay; nothing is visible outside the transaction until
// Commit. Modules with declarations are rejected.
func (t *Tx) Exec(ctx context.Context, src string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return "", ErrTxDone
	}
	m, err := parser.ParseModule(src)
	if err != nil {
		return "", wrapErr(err)
	}
	if len(m.Decls) > 0 {
		return "", fmt.Errorf("dbpl: module %s declares inside a transaction; declarations are not transactional (execute them with DB.Exec first)", m.Name)
	}
	// The type-checking level, as for a module: every statement is checked
	// before the first one runs.
	chk, _ := t.db.checker()
	for _, s := range m.Stmts {
		if err := chk.CheckStmt(s); err != nil {
			return "", err
		}
	}
	var out bytes.Buffer
	err = t.db.runStmts(ctx, &out, m.Stmts, t)
	return out.String(), wrapErr(err)
}

// Query evaluates a query against the transaction's view (snapshot plus own
// writes), binding args positionally like Stmt.Query.
func (t *Tx) Query(ctx context.Context, src string, args ...any) (*Relation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, ErrTxDone
	}
	st, err := t.db.prepareCached(src)
	if err != nil {
		return nil, err
	}
	env, en, err := t.db.newEval(ctx, t.tx)
	if err != nil {
		return nil, err
	}
	return st.execWith(ctx, env, en, args, nil)
}

// QueryRows is Query with a row cursor over the evaluated result.
func (t *Tx) QueryRows(ctx context.Context, src string, args ...any) (*Rows, error) {
	rel, err := t.Query(ctx, src, args...)
	if err != nil {
		return nil, err
	}
	return newRows(ctx, rel), nil
}

// Relation returns a variable's value as seen by the transaction.
func (t *Tx) Relation(name string) (*Relation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, false
	}
	return t.tx.Get(name)
}

// Insert adds tuples to a variable inside the transaction, under its key
// constraint.
func (t *Tx) Insert(name string, tuples ...Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	return wrapErr(t.tx.Insert(name, tuples...))
}

// Assign replaces a variable's value inside the transaction (key-checked).
// It is unguarded, so it supersedes any guard recorded by an earlier guarded
// assignment to the same variable.
func (t *Tx) Assign(name string, rel *Relation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if err := t.tx.Assign(name, rel); err != nil {
		return wrapErr(err)
	}
	delete(t.guards, name)
	return nil
}

// Commit re-checks every recorded guard against the transaction's final
// state and publishes the writes atomically. On a guard violation the
// transaction stays open and nothing is published.
func (t *Tx) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	if t.db.store() != t.tx.DB() {
		return fmt.Errorf("dbpl: store was replaced (LoadStore) during the transaction; nothing committed")
	}
	env, _, err := t.db.newEval(context.Background(), t.tx)
	if err != nil {
		return err
	}
	for _, name := range t.tx.Writes() {
		if rel, ok := t.tx.Get(name); ok {
			if err := compile.CheckGuards(env, name, rel, t.guards[name]); err != nil {
				return wrapErr(err)
			}
		}
	}
	// The store commit write-ahead logs the batch (on a durable DB) before
	// publishing; a log failure leaves both the store and this transaction
	// open, so the caller can retry Commit or Rollback — except a poisoned
	// log (degraded read-only mode), where retrying can never succeed and
	// the error says so.
	if err := t.tx.Commit(); err != nil {
		return wrapErr(t.db.noteMutErr(err))
	}
	t.done = true
	return nil
}

// Rollback discards the transaction's writes.
func (t *Tx) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxDone
	}
	t.done = true
	t.tx.Rollback()
	return nil
}
