package typecheck

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

func check(t *testing.T, src string) error {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := New()
	return c.CheckModule(m)
}

const header = `
MODULE m;
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;
`

func TestValidModule(t *testing.T) {
	err := check(t, header+`
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
SHOW Infront{ahead};
END m.
`)
	if err != nil {
		t.Errorf("valid module rejected: %v", err)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		// Unknown type.
		header + `VAR X: nosuchrel;` + "\nEND m.": "unknown relation type",
		// Unknown attribute in a predicate.
		header + `SHOW {EACH r IN Infront: r.nope = "x"};` + "\nEND m.": `no attribute "nope"`,
		// Kind mismatch in comparison.
		header + `SHOW {EACH r IN Infront: r.front = 1};` + "\nEND m.": "comparison",
		// A scalar name nothing declares: only a query has parameters.
		header + `
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
SHOW Infront[hidden_by(Who)];` + "\nEND m.": `unknown scalar "Who"`,
		// Unknown relation in a range.
		header + `SHOW {EACH r IN Nowhere: TRUE};` + "\nEND m.": `unknown relation "Nowhere"`,
		// Assignment to undeclared variable.
		header + `Nope := {<"a","b">};` + "\nEND m.": "undeclared variable",
		// Arity-incompatible assignment.
		header + `Infront := {<"a">};` + "\nEND m.": "cannot assign",
		// Branch incompatibility inside a constructor body.
		header + `
CONSTRUCTOR bad FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front> OF EACH f IN Rel: TRUE
END bad;
END m.`: "incompatible",
		// Unknown constructor application.
		header + `SHOW Infront{nothere};` + "\nEND m.": `unknown constructor "nothere"`,
		// Wrong base type for a constructor.
		header + `
TYPE otherrel = RELATION OF RECORD x, y, z: parttype END;
VAR O: otherrel;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE END ahead;
O := {<"a","b","c">};
SHOW O{ahead};
END m.`: "expects base of type",
		// Wrong argument count.
		header + `
CONSTRUCTOR ahead FOR Rel: infrontrel (X: infrontrel): aheadrel;
BEGIN EACH r IN Rel: TRUE END ahead;
SHOW Infront{ahead};
END m.`: "expects 1 argument",
		// Duplicate constructor.
		header + `
CONSTRUCTOR c FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE END c;
CONSTRUCTOR c FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE END c;
END m.`: "already defined",
		// Positivity (strict mode).
		header + `
CONSTRUCTOR nonsense FOR Rel: infrontrel (): infrontrel;
BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense;
END m.`: "positivity",
	}
	for src, frag := range cases {
		err := check(t, src)
		if err == nil {
			t.Errorf("expected error mentioning %q, got nil for:\n%s", frag, src)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestMutualRecursionForwardReference(t *testing.T) {
	// above references ahead before ahead's declaration appears.
	err := check(t, header+`
TYPE ontoprel = RELATION OF RECORD top, base: parttype END;
TYPE aboverel = RELATION OF RECORD high, low: parttype END;
CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
END above;
CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.front, ab.low> OF EACH r IN Rel, EACH ab IN Ontop{above(Rel)}: r.back = ab.high
END ahead;
END m.
`)
	if err != nil {
		t.Errorf("forward reference must type-check: %v", err)
	}
}

func TestSubrangeTypes(t *testing.T) {
	err := check(t, `
MODULE m;
TYPE partid = RANGE 1..100;
TYPE prel = RELATION OF RECORD id: partid END;
VAR P: prel;
P := {<5>};
END m.
`)
	if err != nil {
		t.Errorf("subrange module rejected: %v", err)
	}
	err = check(t, `
MODULE m;
TYPE bad = RANGE 9..1;
END m.
`)
	if err == nil || !strings.Contains(err.Error(), "empty subrange") {
		t.Errorf("empty subrange: %v", err)
	}
}

func TestSelectorChecking(t *testing.T) {
	err := check(t, header+`
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
SHOW Infront[hidden_by("table")];
END m.
`)
	if err != nil {
		t.Errorf("selector module rejected: %v", err)
	}
	// Wrong argument kind.
	err = check(t, header+`
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
SHOW Infront[hidden_by(42)];
END m.
`)
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Errorf("wrong selector arg kind: %v", err)
	}
}

// TestCheckQuery pins the query entry: an undeclared scalar name is a
// parameter typed by its first context, parameters come back in source order,
// the result attributes are named after what they project, and the verdict is
// recorded on the tree for the evaluator.
func TestCheckQuery(t *testing.T) {
	m, err := parser.ParseModule(header + `
TYPE stockrel = RELATION OF RECORD item: STRING; qty: INTEGER END;
VAR Stock: stockrel;
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END m.`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ src, typ, params, err string }{
		{src: `Infront[hidden_by(Obj)]`,
			typ: "RECORD front: parttype; back: parttype END", params: "Obj:parttype"},
		{src: `{EACH s IN Stock[by(Q)]: s.item = I}`, err: `unknown selector "by"`},
		{src: `{EACH s IN Stock: s.qty = Q + 1 AND s.item = I}`,
			typ: "RECORD item: STRING; qty: INTEGER END", params: "Q:INTEGER I:STRING"},
		{src: `{<s.item, s.item, N, 7> OF EACH s IN Stock: s.qty > N}`,
			typ: "RECORD item: STRING; item_2: STRING; N: INTEGER; a4: INTEGER END", params: "N:INTEGER"},
		{src: `{<s.item, Tag> OF EACH s IN Stock: TRUE}`,
			typ: "RECORD item: STRING; Tag: INVALID END", params: "Tag:INVALID"},
		{src: `{EACH s IN Stock: s.item = P AND s.qty = P}`, err: "comparison = between INTEGER and STRING"},
		{src: `{EACH s IN Stock: s.item = Stock}`, err: `"Stock" is a relation, not a scalar`},
		{src: `{EACH s IN Stock: SOME r IN Infront[hidden_by(1 + s.qty)] (TRUE)}`, err: `unbound tuple variable "s"`},
	} {
		r, err := parser.ParseRange(tc.src)
		if err != nil {
			t.Fatalf("parse %s: %v", tc.src, err)
		}
		typ, params, err := c.CheckQuery(r, nil)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: %v, want an error containing %q", tc.src, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := typ.Element.String(); got != tc.typ {
			t.Errorf("%s: typed %s, want %s", tc.src, got, tc.typ)
		}
		var ps []string
		for _, p := range params {
			ps = append(ps, p.Name+":"+p.Type.String())
		}
		if got := strings.Join(ps, " "); got != tc.params {
			t.Errorf("%s: parameters %q, want %q", tc.src, got, tc.params)
		}
		if r.Elem == nil || r.Elem.String() != tc.typ || (r.Sub != nil && r.Sub.Elem == nil) {
			t.Errorf("%s: verdict not recorded on the tree", tc.src)
		}
		// An open parameter is typed by giving it.
		for i := range params {
			if params[i].Name == "Tag" {
				params[i].Type = c.Scalars["INTEGER"]
			}
		}
		if typ, _, err = c.CheckQuery(r, params); err != nil || strings.Contains(typ.Element.String(), "INVALID") {
			t.Errorf("%s with every parameter given: %s, %v", tc.src, typ.Element, err)
		}
	}
}
