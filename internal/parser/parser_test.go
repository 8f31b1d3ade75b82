package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func TestParsePaperAheadConstructor(t *testing.T) {
	src := `
MODULE m;
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END m.
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var c *ast.ConstructorDecl
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			c = cd
		}
	}
	if c == nil {
		t.Fatal("no constructor parsed")
	}
	if c.Name != "ahead" || c.ForVar != "Rel" {
		t.Errorf("header: %s FOR %s", c.Name, c.ForVar)
	}
	if len(c.Body.Branches) != 2 {
		t.Fatalf("branches: %d", len(c.Body.Branches))
	}
	b2 := c.Body.Branches[1]
	if len(b2.Binds) != 2 || len(b2.Target) != 2 {
		t.Errorf("branch 2 shape: %d binds, %d targets", len(b2.Binds), len(b2.Target))
	}
	suf := b2.Binds[1].Range.Suffixes
	if len(suf) != 1 || suf[0].Kind != ast.SuffixConstructor || suf[0].Name != "ahead" {
		t.Errorf("recursive suffix: %+v", suf)
	}
}

func TestParseSelectorWithParams(t *testing.T) {
	src := `
MODULE m;
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel ();
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END m.
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var s *ast.SelectorDecl
	for _, d := range m.Decls {
		if sd, ok := d.(*ast.SelectorDecl); ok {
			s = sd
		}
	}
	if s == nil || s.Name != "hidden_by" || len(s.Params) != 1 || s.Params[0].Name != "Obj" {
		t.Fatalf("selector: %+v", s)
	}
}

func TestParseMutualRecursionArgs(t *testing.T) {
	r, err := ParseRange(`Infront{ahead(Ontop)}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if r.Var != "Infront" || len(r.Suffixes) != 1 {
		t.Fatalf("range: %+v", r)
	}
	args := r.Suffixes[0].Args
	if len(args) != 1 || args[0].Rel == nil || args[0].Rel.Var != "Ontop" {
		t.Errorf("args: %+v", args)
	}
}

func TestParseChainedSuffixes(t *testing.T) {
	r, err := ParseRange(`Infront[hidden_by("table")]{ahead}[refint]`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	kinds := []ast.SuffixKind{ast.SuffixSelector, ast.SuffixConstructor, ast.SuffixSelector}
	if len(r.Suffixes) != 3 {
		t.Fatalf("suffixes: %d", len(r.Suffixes))
	}
	for i, k := range kinds {
		if r.Suffixes[i].Kind != k {
			t.Errorf("suffix %d kind = %v, want %v", i, r.Suffixes[i].Kind, k)
		}
	}
	if r.Suffixes[0].Args[0].Scalar == nil {
		t.Error("scalar string argument not parsed")
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		`TRUE`,
		`NOT (r IN Rel)`,
		`SOME r1 IN Objects (r.front = r1.part)`,
		`ALL n IN Ints ((1 < n AND n < p) OR p MOD n # 0)`,
		`r.number = s.number + 1`,
		`<f.front, b.back> IN Ahead2`,
		`x.a = 1 AND x.b = 2 OR NOT (x.c = 3)`,
		`(x.a + 1) * 2 = y.b`,
	}
	for _, src := range cases {
		if _, err := ParsePred(src); err != nil {
			t.Errorf("ParsePred(%q): %v", src, err)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	p, err := ParsePred(`x.a = 1 AND x.b = 2 OR x.c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(ast.Or); !ok {
		t.Errorf("OR must bind loosest, got %T (%s)", p, p)
	}
	tm, err := ParsePred(`x.a + 2 * 3 = 7`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := tm.(ast.Cmp)
	add, ok := cmp.L.(ast.Arith)
	if !ok || add.Op != ast.OpAdd {
		t.Fatalf("expected + at top of term: %s", cmp.L)
	}
	if mul, ok := add.R.(ast.Arith); !ok || mul.Op != ast.OpMul {
		t.Errorf("expected * to bind tighter: %s", add.R)
	}
}

// TestParseSetExprForms also pins the grammar fact the session layer's single
// statement form rests on: every set expression is a range expression whose
// head is that sub-expression, so Prepare only ever calls ParseRange.
func TestParseSetExprForms(t *testing.T) {
	cases := []string{
		`{}`,
		`{<"a","b">, <"b","c">}`,
		`{EACH r IN Rel: TRUE}`,
		`{EACH r IN Rel: TRUE, <f.front, b.back> OF EACH f, b IN Rel: f.back = b.front}`,
		`{EACH r IN {EACH s IN Rel: s.a = 1}: TRUE}`,
	}
	for _, src := range cases {
		s, err := ParseSetExpr(src)
		if err != nil {
			t.Errorf("ParseSetExpr(%q): %v", src, err)
			continue
		}
		r, err := ParseRange(src)
		if err != nil {
			t.Errorf("ParseRange(%q): %v", src, err)
			continue
		}
		if r.Sub == nil || r.Var != "" || len(r.Suffixes) != 0 || r.Sub.String() != s.String() {
			t.Errorf("ParseRange(%q) = %s, want the bare sub-expression %s", src, r, s)
		}
	}
}

func TestParseSharedBindingList(t *testing.T) {
	// The paper writes EACH f,b IN Rel as EACH f IN Rel, EACH b IN Rel; our
	// grammar requires the expanded form — confirm the comma split between
	// branches and bindings disambiguates.
	s, err := ParseSetExpr(`{EACH r IN A: TRUE, EACH q IN B: TRUE}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Branches) != 2 {
		t.Fatalf("expected 2 branches, got %d", len(s.Branches))
	}
	s2, err := ParseSetExpr(`{<a.x, b.y> OF EACH a IN A, EACH b IN B: TRUE}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Branches) != 1 || len(s2.Branches[0].Binds) != 2 {
		t.Fatalf("expected 1 branch with 2 binds: %+v", s2.Branches)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"MODULE m; END x.":                  "terminated by END",
		"MODULE m; TYPE t = ; END m.":       "expected type expression",
		"MODULE m; VAR x: ; END m.":         "expected type expression",
		"MODULE m; x := ; END m.":           "expected relation name or set expression",
		"MODULE m; SHOW Rel":                "expected",
		"MODULE m; TYPE t = RANGE 1 END m.": "expected",
	}
	for src, frag := range cases {
		_, err := ParseModule(src)
		if err == nil {
			t.Errorf("ParseModule(%q): expected error", src)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseModule(%q): error %q does not mention %q", src, err, frag)
		}
	}
}

func TestCommentsAndNesting(t *testing.T) {
	src := `
MODULE m; (* a comment (* nested *) still comment *)
TYPE t = RELATION OF RECORD a: STRING END;
VAR X: t;
X := {<"v">};
END m.
`
	if _, err := ParseModule(src); err != nil {
		t.Errorf("comments: %v", err)
	}
	if _, err := ParseModule("MODULE m; (* unterminated"); err == nil {
		t.Error("unterminated comment must fail")
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Parsed constructors re-render to parseable text (the String methods
	// are the paper-facing syntax).
	src := `
MODULE m;
TYPE pt = STRING;
TYPE ir = RELATION OF RECORD front, back: pt END;
TYPE ar = RELATION OF RECORD head, tail: pt END;
CONSTRUCTOR ahead FOR Rel: ir (): ar;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END m.
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	var c *ast.ConstructorDecl
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			c = cd
		}
	}
	again := "MODULE m;\nTYPE pt = STRING;\nTYPE ir = RELATION OF RECORD front, back: pt END;\nTYPE ar = RELATION OF RECORD head, tail: pt END;\n" + c.String() + ";\nEND m."
	if _, err := ParseModule(again); err != nil {
		t.Errorf("re-parse of rendered constructor failed: %v\n%s", err, again)
	}
}
