package dbpl_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	dbpl "repro"
)

const guardModule = `
MODULE g;
TYPE namet   = STRING;
TYPE objrel  = RELATION OF RECORD name: namet END;
TYPE edgerel = RELATION OF RECORD a, b: namet END;
VAR Objects: objrel;
VAR Edges: edgerel;

SELECTOR refint () FOR Rel: edgerel;
BEGIN EACH r IN Rel: SOME o IN Objects (r.a = o.name) END refint;

SELECTOR has_name (N: namet) FOR Rel: objrel;
BEGIN EACH o IN Rel: o.name = N END has_name;

(* Guard whose body applies an indexable selector: evaluating it takes the
   store's access-path route. *)
SELECTOR refhash () FOR Rel: edgerel;
BEGIN EACH r IN Rel: SOME o IN Objects[has_name("x")] (r.a = o.name) END refhash;

(* Guard parameterized by the relation it checks against. *)
SELECTOR refpar (Objs: objrel) FOR Rel: edgerel;
BEGIN EACH r IN Rel: SOME o IN Objs (r.a = o.name) END refpar;
END g.
`

func TestTxIsolationAndCommit(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, cadModule)

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("lamp"), dbpl.Str("vase"))); err != nil {
		t.Fatal(err)
	}
	// The write is visible inside the transaction...
	in, err := tx.Query(ctx, `Infront[hidden_by("lamp")]`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 1 {
		t.Fatalf("tx query sees %d tuples, want 1", in.Len())
	}
	// ...but not outside until Commit.
	out, err := db.Query(`Infront[hidden_by("lamp")]`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("uncommitted write visible outside the transaction: %s", out)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out, err = db.Query(`Infront[hidden_by("lamp")]`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("committed write not visible: %s", out)
	}
	// Finished transactions reject further use.
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("x"), dbpl.Str("y"))); !errors.Is(err, dbpl.ErrTxDone) {
		t.Errorf("Insert after Commit: %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, dbpl.ErrTxDone) {
		t.Errorf("Rollback after Commit: %v, want ErrTxDone", err)
	}
}

func TestTxRollback(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, cadModule)
	before, _ := db.Relation("Infront")

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("lamp"), dbpl.Str("vase"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Relation("Infront")
	if !before.Equal(after) {
		t.Fatalf("rollback left writes behind: %s != %s", before, after)
	}
}

func TestTxExecAndShow(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, cadModule)

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tx.Exec(ctx, `
MODULE t;
Infront := {<"a","b">};
SHOW Infront;
END t.
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `<"a", "b">`) {
		t.Errorf("SHOW output %q does not reflect the transaction's write", out)
	}
	// Declarations are rejected inside a transaction.
	if _, err := tx.Exec(ctx, `
MODULE d;
TYPE t2 = STRING;
END d.
`); err == nil {
		t.Error("Exec accepted a declaration inside a transaction")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestTxGuardCheckAtCommit exercises the commit-time guard re-check: a
// guarded assignment that is valid when written becomes invalid when a later
// write in the same transaction shrinks the relation its guard references.
func TestTxGuardCheckAtCommit(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, guardModule)
	if err := db.Insert("Objects", dbpl.NewTuple(dbpl.Str("x"))); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Write-time check passes: "x" is an object.
	if _, err := tx.Exec(ctx, `
MODULE t;
Edges[refint] := {<"x","y">};
END t.
`); err != nil {
		t.Fatal(err)
	}
	// A later write invalidates the guard's referenced relation.
	empty, _ := db.Relation("Objects")
	if err := tx.Assign("Objects", empty.Difference(empty)); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	var gv *dbpl.GuardViolationError
	if !errors.As(err, &gv) {
		t.Fatalf("Commit: %v, want GuardViolationError", err)
	}
	// The failed commit left the transaction open and the database untouched.
	edges, _ := db.Relation("Edges")
	if edges.Len() != 0 {
		t.Fatalf("failed commit published writes: %s", edges)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestTxRepeatedSelectorQuery is a regression test for the access-path cache
// serving a stale partition inside a transaction: overlay relations are
// mutated in place by Tx.Insert, so the store must decline to serve
// partitions over them and each query must see the transaction's latest
// writes.
func TestTxRepeatedSelectorQuery(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, cadModule)
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("lamp"), dbpl.Str("vase"))); err != nil {
		t.Fatal(err)
	}
	// First query over the overlay relation (may tempt the provider to
	// cache a partition keyed by its pointer).
	r1, err := tx.Query(ctx, `Infront[hidden_by("lamp")]`)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 1 {
		t.Fatalf("first tx query: %d tuples, want 1", r1.Len())
	}
	// Second insert mutates the same overlay relation in place.
	if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("lamp"), dbpl.Str("door"))); err != nil {
		t.Fatal(err)
	}
	r2, err := tx.Query(ctx, `Infront[hidden_by("lamp")]`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("second tx query served stale state: %d tuples, want 2", r2.Len())
	}
}

// TestTxUnguardedAssignSupersedesGuard checks that an unguarded assignment
// to the same variable clears a previously recorded guard, matching the
// non-transactional semantics where every assignment is checked
// independently.
func TestTxUnguardedAssignSupersedesGuard(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, guardModule)
	if err := db.Insert("Objects", dbpl.NewTuple(dbpl.Str("x"))); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `
MODULE t;
Edges[refint] := {<"x","y">};
END t.
`); err != nil {
		t.Fatal(err)
	}
	// Unguarded assignment replaces the value wholesale with a tuple that
	// would violate refint; the earlier guard must not apply to it.
	edges, _ := db.Relation("Edges")
	repl := edges.Difference(edges)
	if err := repl.Insert(dbpl.NewTuple(dbpl.Str("zzz"), dbpl.Str("y"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Assign("Edges", repl); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit re-applied a superseded guard: %v", err)
	}
	got, _ := db.Relation("Edges")
	if got.Len() != 1 || !got.Contains(dbpl.NewTuple(dbpl.Str("zzz"), dbpl.Str("y"))) {
		t.Fatalf("committed value: %s", got)
	}
}

// TestGuardWithIndexableSelectorBody is a deadlock regression test: a guard
// predicate is arbitrary evaluator code — here a body applying an indexable
// selector, which once read-locked the store to ask for its partition — so
// the guard checks must run outside the store's write lock.
func TestGuardWithIndexableSelectorBody(t *testing.T) {
	db := openWith(t, guardModule)
	if err := db.Insert("Objects", dbpl.NewTuple(dbpl.Str("x"))); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(`
MODULE t;
Edges[refhash] := {<"x","y">};
END t.
`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("guarded assignment deadlocked (guard evaluated under the store write lock)")
	}
	edges, _ := db.Relation("Edges")
	if edges.Len() != 1 {
		t.Fatalf("guarded assignment did not land: %s", edges)
	}
}

// TestTxGuardParamRecheckedAgainstFinalState checks that a guard's
// relation-valued selector arguments are re-resolved at commit, so the
// re-check runs against the transaction's final state rather than the values
// captured when the assignment executed.
func TestTxGuardParamRecheckedAgainstFinalState(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, guardModule)
	if err := db.Insert("Objects", dbpl.NewTuple(dbpl.Str("x"))); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	// Write-time check passes: the Objects argument contains "x".
	if _, err := tx.Exec(ctx, `
MODULE t;
Edges[refpar(Objects)] := {<"x","y">};
END t.
`); err != nil {
		t.Fatal(err)
	}
	// Empty the relation the guard argument names; the commit-time re-check
	// must resolve the argument afresh and reject.
	obj, _ := db.Relation("Objects")
	if err := tx.Assign("Objects", obj.Difference(obj)); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	var gv *dbpl.GuardViolationError
	if !errors.As(err, &gv) {
		t.Fatalf("Commit: %v, want GuardViolationError (stale guard argument)", err)
	}
}

// TestTxGuardCommitOK is the counterpart: an untouched guard re-checks clean
// and the commit publishes.
func TestTxGuardCommitOK(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, guardModule)
	if err := db.Insert("Objects", dbpl.NewTuple(dbpl.Str("x"))); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `
MODULE t;
Edges[refint] := {<"x","y">};
END t.
`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	edges, _ := db.Relation("Edges")
	if edges.Len() != 1 {
		t.Fatalf("committed guarded assignment missing: %s", edges)
	}
}
