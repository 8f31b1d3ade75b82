package compile

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/store"
	"repro/internal/typecheck"
	"repro/internal/value"
)

const cadSrc = `
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

Infront := {<"a","b">, <"b","c">};
SHOW Infront{ahead};
SHOW Infront;
END cad.
`

func TestCompileAnalysis(t *testing.T) {
	p, err := Compile(cadSrc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Recursive) != 1 || p.Recursive[0] != "ahead" {
		t.Errorf("recursive: %v", p.Recursive)
	}
	if rep, ok := p.Positivity["ahead"]; !ok || !rep.Positive() {
		t.Error("positivity report missing or wrong")
	}
	if len(p.Components) != 1 {
		t.Errorf("components: %v", p.Components)
	}
	// Statement plans: assignment is plain; first SHOW is fixpoint; second
	// SHOW is plain.
	if p.Plans[0].Strategy != StrategyPlain {
		t.Errorf("plan 0: %v", p.Plans[0].Strategy)
	}
	if p.Plans[1].Strategy != StrategyFixpoint {
		t.Errorf("plan 1: %v", p.Plans[1].Strategy)
	}
	if p.Plans[2].Strategy != StrategyPlain {
		t.Errorf("plan 2: %v", p.Plans[2].Strategy)
	}
}

func TestDecompileStrategyForNonRecursive(t *testing.T) {
	src := strings.Replace(cadSrc,
		"<f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head",
		"<f.front, b.back> OF EACH f IN Rel, EACH b IN Rel: f.back = b.front", 1)
	p, err := Compile(src, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Recursive) != 0 {
		t.Errorf("non-recursive module: %v", p.Recursive)
	}
	if p.Plans[1].Strategy != StrategyDecompile {
		t.Errorf("plan 1 should decompile: %v", p.Plans[1].Strategy)
	}
}

// runProgram executes a compiled program the way the session layer does: the
// module's variables are declared, then every statement runs through RunStmt
// in a fresh environment over the database's current state.
func runProgram(t *testing.T, p *Program, db *store.Database, out io.Writer) error {
	t.Helper()
	if err := DeclareVars(p.Checker, db); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Module.Stmts {
		env := programEnv(t, p, db)
		core.NewEngine(p.Registry, env)
		if _, _, err := RunStmt(env, db, out, s); err != nil {
			return err
		}
	}
	return nil
}

// programEnv is an environment over the database's current state that knows
// the program's selectors.
func programEnv(t *testing.T, p *Program, db *store.Database) *eval.Env {
	t.Helper()
	env := eval.NewEnv()
	for name, sig := range p.Checker.Selectors {
		env.Selectors[name] = sig.Decl
	}
	var err error
	if env.Rels, err = db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestRunStmtExecution(t *testing.T) {
	// The ad-hoc selector-then-constructor range rides along as a statement.
	src := strings.Replace(cadSrc, "SHOW Infront;", `SHOW Infront[hidden_by("a")]{ahead};`, 1)
	p, err := Compile(src, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	db := store.NewDatabase()
	if err := runProgram(t, p, db, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one line per SHOW, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[0], "Infront{ahead} = ") || !strings.Contains(lines[0], `<"a", "c">`) {
		t.Errorf("SHOW output missing derived tuple: %s", lines[0])
	}
	// hidden_by("a") keeps <a,b>; its closure is that one tuple.
	if strings.Count(lines[1], "<") != 1 || !strings.Contains(lines[1], `<"a", "b">`) {
		t.Errorf("selector-then-constructor range: %s", lines[1])
	}
	// The assignment went through the database, and each statement saw it.
	if rel, ok := db.Get("Infront"); !ok || rel.Len() != 2 {
		t.Errorf("assignment not stored: %v", rel)
	}
	// A nil writer discards SHOW output.
	if err := runProgram(t, p, store.NewDatabase(), nil); err != nil {
		t.Errorf("nil writer: %v", err)
	}
}

// TestRunStmtGuards pins the write side: a guarded assignment reports its
// target and guards, writes through whichever Assigner it is given (the
// database or a transaction), and a violated guard names the variable, the
// selector and the first tuple it drops, and leaves the state alone.
func TestRunStmtGuards(t *testing.T) {
	src := strings.Replace(cadSrc, "SHOW Infront;", `Infront[hidden_by("a")] := {<"a","z">};`, 1)
	p, err := Compile(src, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := runProgram(t, p, db, nil); err != nil {
		t.Fatal(err)
	}
	env := programEnv(t, p, db)
	guarded := p.Module.Stmts[2]

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	target, guards, err := RunStmt(env, tx, nil, guarded)
	if err != nil {
		t.Fatal(err)
	}
	if target != "Infront" || len(guards) != 1 || guards[0].Name != "hidden_by" || len(guards[0].Args) != 1 {
		t.Errorf("target %q guards %+v", target, guards)
	}
	if rel, _ := tx.Get("Infront"); rel.Len() != 1 {
		t.Errorf("transaction did not take the write: %s", rel)
	}
	if rel, _ := db.Get("Infront"); rel.Len() != 1 || !rel.Contains(value.NewTuple(value.Str("a"), value.Str("z"))) {
		t.Errorf("database state after the module: %s", rel)
	}

	bad, err := parser.ParseModule(`MODULE b;
Infront[hidden_by("q")] := {<"a","z">};
Infront[hidden_by("a")] := {<"a","1">, <"b","2">};
Infront[nosuch] := {<"a","z">};
END b.`)
	if err != nil {
		t.Fatal(err)
	}
	// Checked like every statement the session runs; the unknown selector is
	// the checker's to reject, the guard violation the runtime level's.
	for i, dropped := range []value.Tuple{
		value.NewTuple(value.Str("a"), value.Str("z")),
		value.NewTuple(value.Str("b"), value.Str("2")),
	} {
		if err := p.Checker.CheckStmt(bad.Stmts[i]); err != nil {
			t.Fatal(err)
		}
		var gv *GuardViolationError
		_, _, err := RunStmt(env, db, nil, bad.Stmts[i])
		if !errors.As(err, &gv) {
			t.Errorf("%s: want a guard violation, got %v", bad.Stmts[i], err)
		} else if gv.Variable != "Infront" || gv.Guard != "hidden_by" || !gv.Tuple.Equal(dropped) {
			t.Errorf("%s: violation %+v, want Infront[hidden_by] dropping %s", bad.Stmts[i], gv, dropped)
		}
	}
	var te *typecheck.Error
	if err := p.Checker.CheckStmt(bad.Stmts[2]); !errors.As(err, &te) {
		t.Errorf("want a type error, got %v", err)
	}
	if _, _, err := RunStmt(env, db, nil, bad.Stmts[2]); err == nil {
		t.Errorf("%s must fail at the runtime level too", bad.Stmts[2])
	}
	if rel, _ := db.Get("Infront"); rel.Len() != 1 {
		t.Errorf("failed assignments changed the database: %s", rel)
	}
}

func TestAssignThroughConstructorRejected(t *testing.T) {
	p, err := Compile(cadSrc, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := runProgram(t, p, db, nil); err != nil {
		t.Fatal(err)
	}
	// The checker types a constructed target like any range, so the runtime
	// level must reject the assignment itself.
	m, err := parser.ParseModule(`MODULE b; Infront{ahead} := {<"x","y">}; END b.`)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Checker.CheckStmt(m.Stmts[0]); err != nil {
		t.Fatal(err)
	}
	_, _, err = RunStmt(programEnv(t, p, db), db, nil, m.Stmts[0])
	if err == nil || !strings.Contains(err.Error(), "assignment through a constructed relation") {
		t.Errorf("assignment through a constructed relation must fail, got %v", err)
	}
	if rel, _ := db.Get("Infront"); rel.Len() != 2 {
		t.Errorf("rejected assignment changed the database: %s", rel)
	}
}

func TestStrictModeFlowsThrough(t *testing.T) {
	bad := `
MODULE m;
TYPE r = RELATION OF RECORD a: STRING END;
CONSTRUCTOR n FOR Rel: r (): r;
BEGIN EACH x IN Rel: NOT (x IN Rel{n}) END n;
END m.
`
	if _, err := Compile(bad, Options{Strict: true}); err == nil {
		t.Error("strict compile must reject nonsense")
	}
	if _, err := Compile(bad, Options{Strict: false}); err != nil {
		t.Errorf("lax compile must accept it: %v", err)
	}
}
