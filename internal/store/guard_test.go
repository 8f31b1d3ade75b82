package store_test

import (
	"errors"
	"testing"

	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/value"
)

// A guarded assignment R[onlyx] := rex is checked before the store takes
// the write: a rejected value names its guard and leaves the stored value as
// it was, a conforming one is stored.
func TestGuardedAssignmentAtomicity(t *testing.T) {
	p, err := compile.Compile(`MODULE g;
TYPE binrel = RELATION OF RECORD a, b: STRING END;
VAR R: binrel;
SELECTOR onlyx () FOR Rel: binrel;
BEGIN EACH r IN Rel: r.a = "x" END onlyx;
R := {<"keep","me">};
END g.`, compile.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := compile.DeclareVars(p.Checker, db); err != nil {
		t.Fatal(err)
	}
	env := eval.NewEnv()
	for name, sig := range p.Checker.Selectors {
		env.Selectors[name] = sig.Decl
	}
	if _, _, err := compile.RunStmt(env, db, nil, p.Module.Stmts[0]); err != nil {
		t.Fatal(err)
	}

	m, err := parser.ParseModule(`MODULE w;
R[onlyx] := {<"x","1">, <"y","2">};
R[onlyx] := {<"x","1">};
END w.`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Stmts {
		if err := p.Checker.CheckStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	var gv *compile.GuardViolationError
	_, _, err = compile.RunStmt(env, db, nil, m.Stmts[0])
	if err == nil {
		t.Fatal("guard must reject")
	}
	if !errors.As(err, &gv) {
		t.Fatalf("expected GuardViolationError, got %T", err)
	}
	if gv.Guard != "onlyx" {
		t.Errorf("violation names guard %q", gv.Guard)
	}
	keep := value.NewTuple(value.Str("keep"), value.Str("me"))
	got, _ := db.Get("R")
	if got.Len() != 1 || !got.Contains(keep) {
		t.Error("failed assignment must leave the old value")
	}
	if _, _, err := compile.RunStmt(env, db, nil, m.Stmts[1]); err != nil {
		t.Errorf("conforming assignment rejected: %v", err)
	}
	got, _ = db.Get("R")
	if got.Len() != 1 || !got.Contains(value.NewTuple(value.Str("x"), value.Str("1"))) {
		t.Errorf("conforming assignment not stored: %s", got)
	}
}
