package dbpl

import (
	"errors"
	"testing"
)

// Every exported error type must surface through the public Exec/Query
// surface and be matchable with errors.As.

func TestParseErrorSurfaces(t *testing.T) {
	db := mustOpen(t)
	var pe *ParseError
	if _, err := db.Exec(`MODULE ; nonsense`); !errors.As(err, &pe) {
		t.Fatalf("exec: got %T %v, want *ParseError", err, err)
	}
	if pe.Line == 0 {
		t.Errorf("parse error lost its position: %+v", pe)
	}
	if _, err := db.Query(`{{{`); !errors.As(err, &pe) {
		t.Errorf("query: got %T %v, want *ParseError", err, err)
	}
	if _, err := db.Prepare(`EACH IN`); !errors.As(err, &pe) {
		t.Errorf("prepare: got %T %v, want *ParseError", err, err)
	}
}

func TestTypeErrorSurfaces(t *testing.T) {
	db := mustOpen(t)
	var te *TypeError
	if _, err := db.Exec(`
MODULE m;
VAR X: nosuchtype;
END m.
`); !errors.As(err, &te) {
		t.Fatalf("got %T %v, want *TypeError", err, err)
	}
}

func TestPositivityErrorSurfaces(t *testing.T) {
	db := mustOpen(t)
	var pe *PositivityError
	_, err := db.Exec(`
MODULE bad;
TYPE anyrel = RELATION OF RECORD a: STRING END;
CONSTRUCTOR nonsense FOR Rel: anyrel (): anyrel;
BEGIN
  EACH r IN Rel: NOT (r IN Rel{nonsense})
END nonsense;
END bad.
`)
	if !errors.As(err, &pe) {
		t.Fatalf("got %T %v, want *PositivityError", err, err)
	}
	if pe.Constructor != "nonsense" || len(pe.Report.Violations) == 0 {
		t.Errorf("positivity error lost its report: %+v", pe)
	}
}

func TestKeyConflictErrorSurfaces(t *testing.T) {
	db := mustOpen(t)
	var ke *KeyConflictError
	_, err := db.Exec(`
MODULE m;
TYPE keyed = RELATION a OF RECORD a, b: STRING END;
VAR R: keyed;
R := {<"x","1">, <"x","2">};
END m.
`)
	if !errors.As(err, &ke) {
		t.Fatalf("exec: got %T %v, want *KeyConflictError", err, err)
	}
	// The programmatic path reports the same type.
	if _, err := db.Exec(`
MODULE m2;
R := {<"x","1">};
END m2.
`); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := db.Insert("R", NewTuple(Str("x"), Str("other"))); !errors.As(err, &ke) {
		t.Errorf("insert: got %T %v, want *KeyConflictError", err, err)
	}
}

func TestGuardViolationErrorSurfaces(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("setup: %v", err)
	}
	var ge *GuardViolationError
	_, err := db.Exec(`
MODULE g;
Infront[hidden_by("table")] := {<"vase","chair">};
END g.
`)
	if !errors.As(err, &ge) {
		t.Fatalf("got %T %v, want *GuardViolationError", err, err)
	}
	if ge.Variable != "Infront" || ge.Guard != "hidden_by" {
		t.Errorf("guard violation lost its detail: %+v", ge)
	}
}
