package dbpl

import (
	"bytes"
	"strings"
	"testing"
)

const cadModule = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;

Infront := {<"vase","table">, <"table","chair">, <"chair","door">};
SHOW Infront{ahead};
END cad.
`

// mustOpen opens a memory-only database with default options.
func mustOpen(t testing.TB) *DB {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecPaperModule(t *testing.T) {
	db := mustOpen(t)
	out, err := db.Exec(cadModule)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	// Closure of a 3-chain has 6 tuples; check two derived facts appear.
	for _, want := range []string{`<"vase", "door">`, `<"table", "door">`} {
		if !strings.Contains(out, want) {
			t.Errorf("SHOW output missing %s:\n%s", want, out)
		}
	}
}

func TestQueryAfterExec(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	// Selection before construction: the closure of the selected edges.
	rel, err := db.Query(`Infront[hidden_by("table")]{ahead}`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rel.Len() != 1 || !rel.Contains(NewTuple(Str("table"), Str("chair"))) {
		t.Errorf("select-then-construct: got %s, want {<table,chair>}", rel)
	}

	// The paper's "all objects behind the table": closure first, then the
	// selector (interpreted positionally over the aheadrel result).
	rel, err = db.Query(`Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rel.Len() != 2 {
		t.Errorf("construct-then-select: got %d tuples, want 2: %s", rel.Len(), rel)
	}
	if !rel.Contains(NewTuple(Str("table"), Str("door"))) {
		t.Errorf("missing derived tuple <table,door>: %s", rel)
	}
}

func TestProgrammaticAPI(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	infront, ok := db.Relation("Infront")
	if !ok {
		t.Fatal("Infront not declared")
	}
	closure, err := db.Apply("ahead", infront)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if closure.Len() != 6 {
		t.Errorf("closure size: got %d, want 6", closure.Len())
	}
	if db.LastStats().Tuples != 6 {
		t.Errorf("stats tuples: got %d, want 6", db.LastStats().Tuples)
	}
}

func TestModesAgree(t *testing.T) {
	for _, mode := range []Mode{Naive, SemiNaive} {
		db := mustOpen(t)
		db.SetMode(mode)
		if _, err := db.Exec(cadModule); err != nil {
			t.Fatalf("exec: %v", err)
		}
		rel, err := db.Query(`Infront{ahead}`)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if rel.Len() != 6 {
			t.Errorf("mode %v: got %d tuples, want 6", mode, rel.Len())
		}
	}
}

func TestAccumulatedModules(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec 1: %v", err)
	}
	// A second module reuses the first one's types and variables.
	out, err := db.Exec(`
MODULE more;
VAR Extra: infrontrel;
Extra := {<"door","wall">};
SHOW Extra{ahead};
END more.
`)
	if err != nil {
		t.Fatalf("exec 2: %v", err)
	}
	if !strings.Contains(out, `<"door", "wall">`) {
		t.Errorf("second module output wrong:\n%s", out)
	}
}

func TestPositivityRejectionThroughFacade(t *testing.T) {
	db := mustOpen(t)
	_, err := db.Exec(`
MODULE bad;
TYPE anyrel = RELATION OF RECORD a: STRING END;
CONSTRUCTOR nonsense FOR Rel: anyrel (): anyrel;
BEGIN
  EACH r IN Rel: NOT (r IN Rel{nonsense})
END nonsense;
END bad.
`)
	if err == nil || !strings.Contains(err.Error(), "positivity") {
		t.Errorf("expected positivity rejection, got %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}

	db2 := mustOpen(t)
	if err := db2.LoadStore(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	r1, _ := db.Relation("Infront")
	r2, ok := db2.Relation("Infront")
	if !ok || !r1.Equal(r2) {
		t.Errorf("round trip mismatch: %v vs %v", r1, r2)
	}
}

func TestGuardedAssignmentRejects(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	// Assignment through hidden_by("table") must reject tuples whose front
	// is not "table" (the paper's conditional-assignment semantics).
	_, err := db.Exec(`
MODULE guard;
Infront[hidden_by("table")] := {<"vase","chair">};
END guard.
`)
	if err == nil || !strings.Contains(err.Error(), "violates the selector predicate") {
		t.Errorf("expected guard violation, got %v", err)
	}
	// A conforming assignment passes.
	if _, err := db.Exec(`
MODULE guard2;
Infront[hidden_by("table")] := {<"table","window">};
END guard2.
`); err != nil {
		t.Errorf("conforming guarded assignment failed: %v", err)
	}
}

func TestQuantGraphRendering(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	dot := db.QuantGraphDOT()
	if !strings.Contains(dot, "CONSTRUCTOR ahead") {
		t.Errorf("DOT output missing head node:\n%s", dot)
	}
	ascii := db.QuantGraphASCII()
	if !strings.Contains(ascii, "recursive cycles: ahead") {
		t.Errorf("ASCII output missing cycle report:\n%s", ascii)
	}
}
