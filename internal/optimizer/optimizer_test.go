package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
	"repro/internal/workload"
)

var binT = workload.BinaryStringRelType("r", "a", "b")

func testEnv() *eval.Env {
	e := eval.NewEnv()
	rel := relation.New(binT)
	names := []string{"x", "y", "z", "w"}
	rng := rand.New(rand.NewSource(5))
	for _, p := range names {
		for _, q := range names {
			if rng.Intn(2) == 0 {
				rel.Add(value.NewTuple(value.Str(p), value.Str(q)))
			}
		}
	}
	e.Rels["R"] = rel
	e.Rels["S"] = rel.Select(func(t value.Tuple) bool { return t[0] != t[1] })
	return e
}

func evalBranchSet(t *testing.T, e *eval.Env, brs ...ast.Branch) *relation.Relation {
	t.Helper()
	e.ResetMemo()
	// Typed first, as the session does with a rewritten form: the passes build
	// ranges and set expressions that carry no type yet.
	chk := typecheck.New()
	chk.VarType = func(name string) (schema.RelationType, bool) {
		rel, ok := e.Rels[name]
		if !ok {
			return schema.RelationType{}, false
		}
		return rel.Type(), true
	}
	r := &ast.Range{Sub: &ast.SetExpr{Branches: brs}}
	if _, _, err := chk.CheckQuery(r, nil); err != nil {
		t.Fatalf("check: %v", err)
	}
	out, err := e.Range(r)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return out
}

// TestN1PreservesSemantics: nesting conjuncts into ranges must not change
// the result (rule N1 of [JaKo 83]).
func TestN1PreservesSemantics(t *testing.T) {
	srcs := []string{
		`{EACH r IN R: r.a = "x" AND r.b = "y"}`,
		`{<f.a, g.b> OF EACH f IN R, EACH g IN S: f.b = g.a AND f.a = "x" AND g.b # "z"}`,
		`{EACH r IN R: r.a # r.b AND r.a = "y"}`,
	}
	for _, src := range srcs {
		s, err := parser.ParseSetExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e := testEnv()
		orig := evalBranchSet(t, e, s.Branches[0])
		nested, moved := NestBranch(s.Branches[0])
		got := evalBranchSet(t, e, nested)
		if !got.Equal(orig) {
			t.Errorf("%q: nesting changed the result (%d vs %d tuples, %d moved)",
				src, got.Len(), orig.Len(), moved)
		}
		// Flattening the nested branch must also agree.
		flat, n := FlattenBranch(nested)
		if n != moved {
			t.Errorf("%q: flattened %d, nested %d", src, n, moved)
		}
		back := evalBranchSet(t, e, flat)
		if !back.Equal(orig) {
			t.Errorf("%q: flatten changed the result", src)
		}
	}
}

func TestN2N3PreserveSemantics(t *testing.T) {
	quantSrcs := []string{
		`SOME s IN R (s.a = "x" AND s.b = q.b)`,
		`ALL s IN R (NOT (s.a = "x") OR s.b = q.b)`,
	}
	for _, src := range quantSrcs {
		p, err := parser.ParsePred(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		q := p.(ast.Quant)
		nested, changed := NestQuant(q)
		if !changed {
			t.Fatalf("%q: no rewrite happened", src)
		}
		// The quantifier holds of the same tuples before and after: select
		// with each as the predicate of EACH q IN R.
		e := testEnv()
		over := func(p ast.Pred) ast.Branch {
			return ast.Branch{Binds: []ast.Binding{{Var: "q", Range: ast.RangeVar("R")}}, Where: p}
		}
		if !evalBranchSet(t, e, over(nested)).Equal(evalBranchSet(t, e, over(q))) {
			t.Errorf("%q: N2/N3 changed the result", src)
		}
	}
}

// ---------------------------------------------------------------------------
// Constraint propagation (Cases 1–3)
// ---------------------------------------------------------------------------

const joinConsSrc = `
MODULE m;
TYPE pt = STRING;
TYPE rrel = RELATION OF RECORD a, b: pt END;
CONSTRUCTOR combine FOR Rel: rrel (Other: rrel): rrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.a, g.b> OF EACH f IN Rel, EACH g IN Other: f.b = g.a
END combine;
END m.
`

func TestPushSelectionNonRecursive(t *testing.T) {
	m, err := parser.ParseModule(joinConsSrc)
	if err != nil {
		t.Fatal(err)
	}
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	sig := chk.Constructors["combine"]

	pred, _ := parser.ParsePred(`res.a = "x"`)
	specialized, err := PushSelection(sig.Decl, sig.Result.Element, "res", pred,
		func(*ast.Range) (schema.RecordType, bool) { return sig.ForType.Element, true }, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate both: full apply + filter vs the specialized constructor.
	reg := core.NewRegistry()
	if _, err := reg.Register(sig.Decl, sig.Result, sig.Positivity); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(specialized, sig.Result, positivity.CheckConstructor(specialized, nil)); err != nil {
		t.Fatal(err)
	}
	e := testEnv()
	en := core.NewEngine(reg, e)
	base := e.Rels["R"]
	other := e.Rels["S"]
	full, err := en.Apply("combine", base, []eval.Resolved{{Rel: other}})
	if err != nil {
		t.Fatal(err)
	}
	want := full.Select(func(tup value.Tuple) bool { return tup[0] == value.Str("x") })
	got, err := en.Apply("combine_selected", base, []eval.Resolved{{Rel: other}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("pushed selection %s != filtered %s", got, want)
	}
}

func TestPushSelectionRejectsRecursive(t *testing.T) {
	src := `
MODULE m;
TYPE pt = STRING;
TYPE rrel = RELATION OF RECORD a, b: pt END;
CONSTRUCTOR tc FOR Rel: rrel (): rrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.a, g.b> OF EACH f IN Rel, EACH g IN Rel{tc}: f.b = g.a
END tc;
END m.
`
	m, _ := parser.ParseModule(src)
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	sig := chk.Constructors["tc"]
	pred, _ := parser.ParsePred(`res.a = "x"`)
	_, err := PushSelection(sig.Decl, sig.Result.Element, "res", pred, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected recursion rejection, got %v", err)
	}
}

func TestPushSelectionRejectsNonPositivePredicate(t *testing.T) {
	m, _ := parser.ParseModule(joinConsSrc)
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	sig := chk.Constructors["combine"]
	pred, _ := parser.ParsePred(`NOT (res IN Hidden)`)
	_, err := PushSelection(sig.Decl, sig.Result.Element, "res", pred, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "positivity") {
		t.Errorf("expected positivity rejection, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// Bound-argument restriction (magic sets over declarations)
// ---------------------------------------------------------------------------

// closureSrc declares the paper's right-linear ahead and a non-linear closure
// with a literal branch, plus a non-recursive constructor and a recursive one
// that takes an argument, which Restrict refuses.
const closureSrc = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
CONSTRUCTOR tc FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <"n0000", "n0001">,
  <a.head, b.tail> OF EACH a IN Rel{tc}, EACH b IN Rel{tc}: a.tail = b.head
END tc;
CONSTRUCTOR invert FOR Rel: infrontrel (): aheadrel;
BEGIN <r.back, r.front> OF EACH r IN Rel: TRUE END invert;
CONSTRUCTOR via FOR Rel: infrontrel (Other: infrontrel): aheadrel;
BEGIN
  EACH r IN Other: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{via(Other)}: f.back = b.head
END via;
END cad.
`

// restricted checks closureSrc and the declarations Restrict generates for
// cons adorned ad, and returns an engine with both registered and the base
// relation type.
func restricted(t *testing.T, cons, ad string) (*core.Engine, *Restriction, schema.RelationType) {
	t.Helper()
	m, err := parser.ParseModule(closureSrc)
	if err != nil {
		t.Fatal(err)
	}
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	res, err := Restrict(chk.Constructors, RecursiveFromSigs(chk.Constructors), cons, ad)
	if err != nil {
		t.Fatal(err)
	}
	gen := &ast.Module{Name: "restrict"}
	for _, d := range res.Decls {
		gen.Decls = append(gen.Decls, d)
	}
	if err := chk.CheckModule(gen); err != nil {
		t.Fatalf("generated declarations do not check: %v", err)
	}
	reg := core.NewRegistry()
	for _, sig := range chk.Constructors {
		if _, err := reg.Register(sig.Decl, sig.Result, sig.Positivity); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewEngine(reg, eval.NewEnv()), res, chk.RelTypes["infrontrel"]
}

// TestRestrictGoldenAhead pins the declarations generated for ahead with its
// head bound (bf) and with its tail bound (fb). Under fb the recursive call
// binds both attributes, so the goal's magic constructor holds only the seed
// and the call's, m__ahead__bb, collects every binding.
func TestRestrictGoldenAhead(t *testing.T) {
	for _, tc := range []struct{ ad, want string }{
		{"bf", `CONSTRUCTOR ahead__bf FOR Rel: infrontrel (B1: parttype): aheadrel;
BEGIN EACH r IN Rel, EACH m IN Rel{m__ahead__bf(B1)}: m.head = r.front,
 <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead__bf(B1)}, EACH m IN Rel{m__ahead__bf(B1)}: (f.back = b.head AND m.head = f.front) END ahead__bf
CONSTRUCTOR m__ahead__bf FOR Rel: infrontrel (B1: parttype): RELATION OF RECORD head: parttype END;
BEGIN <B1>,
 <f.back> OF EACH f IN Rel, EACH m IN Rel{m__ahead__bf(B1)}: m.head = f.front END m__ahead__bf
`},
		{"fb", `CONSTRUCTOR ahead__fb FOR Rel: infrontrel (B1: parttype): aheadrel;
BEGIN EACH r IN Rel, EACH m IN Rel{m__ahead__fb(B1)}: m.tail = r.back,
 <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead__bb(B1)}, EACH m IN Rel{m__ahead__fb(B1)}: (f.back = b.head AND m.tail = b.tail) END ahead__fb
CONSTRUCTOR m__ahead__fb FOR Rel: infrontrel (B1: parttype): RELATION OF RECORD tail: parttype END;
BEGIN <B1> END m__ahead__fb
CONSTRUCTOR ahead__bb FOR Rel: infrontrel (B1: parttype): aheadrel;
BEGIN EACH r IN Rel, EACH m IN Rel{m__ahead__bb(B1)}: (m.head = r.front AND m.tail = r.back),
 <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead__bb(B1)}, EACH m IN Rel{m__ahead__bb(B1)}: ((f.back = b.head AND m.head = f.front) AND m.tail = b.tail) END ahead__bb
CONSTRUCTOR m__ahead__bb FOR Rel: infrontrel (B1: parttype): RELATION OF RECORD head: parttype; tail: parttype END;
BEGIN <f.back, m.tail> OF EACH f IN Rel, EACH m IN Rel{m__ahead__fb(B1)}: TRUE,
 <f.back, m.tail> OF EACH f IN Rel, EACH m IN Rel{m__ahead__bb(B1)}: m.head = f.front END m__ahead__bb
`},
	} {
		_, res, _ := restricted(t, "ahead", tc.ad)
		var b strings.Builder
		for _, d := range res.Decls {
			b.WriteString(d.String() + "\n")
		}
		if got := b.String(); got != tc.want {
			t.Errorf("ahead %s:\n%s\nwant:\n%s", tc.ad, got, tc.want)
		}
		if res.Goal != "ahead__"+tc.ad {
			t.Errorf("goal %s, want ahead__%s", res.Goal, tc.ad)
		}
	}
}

// applyBound applies cons restricted by ad to base with the bound values.
func applyBound(t *testing.T, en *core.Engine, res *Restriction, base *relation.Relation, vals ...string) *relation.Relation {
	t.Helper()
	args := make([]eval.Resolved, len(vals))
	for i, v := range vals {
		args[i] = eval.Resolved{Scalar: value.Str(v), IsScalar: true}
	}
	out, err := en.Apply(res.Goal, base, args)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRestrictionRestrictsComputation(t *testing.T) {
	en, res, inT := restricted(t, "ahead", "bf")
	// Two disconnected chains; binding the head to the small one must keep
	// the fixpoint away from the big one.
	var edges []workload.Edge
	for i := 0; i < 4; i++ {
		edges = append(edges, workload.Edge{From: i, To: i + 1})
	}
	for i := 100; i < 140; i++ {
		edges = append(edges, workload.Edge{From: i, To: i + 1})
	}
	base := workload.EdgesToRelation(inT, edges)
	got := applyBound(t, en, res, base, workload.NodeName(0))
	if n := got.Select(func(tup value.Tuple) bool { return tup[0] == value.Str(workload.NodeName(0)) }).Len(); n != 4 {
		t.Errorf("restricted answers: %d, want 4", n)
	}
	// The adorned extension is the small chain's closure (10 pairs), far
	// below the big chain's 820.
	full, err := en.Apply("ahead", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 || full.Len() != 830 {
		t.Errorf("restricted %d tuples, full %d; want 10 and 830", got.Len(), full.Len())
	}
}

// TestMagicAgreesWithDirectOnRandomGraphs: on random graphs, every generated
// system — both closures, either attribute bound — holds exactly the tuples
// of the full fixpoint that carry the bound value.
func TestMagicAgreesWithDirectOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cons := range []string{"ahead", "tc"} {
		for pos, ad := range []string{"bf", "fb"} {
			en, res, inT := restricted(t, cons, ad)
			for trial := 0; trial < 10; trial++ {
				base := workload.EdgesToRelation(inT, workload.RandomGraph(8, 12, rng.Int63()))
				v := value.Str(workload.NodeName(rng.Intn(8)))
				full, err := en.Apply(cons, base, nil)
				if err != nil {
					t.Fatal(err)
				}
				bound := func(tup value.Tuple) bool { return tup[pos] == v }
				want := full.Select(bound)
				got := applyBound(t, en, res, base, v.AsString())
				if !got.Select(bound).Equal(want) || got.Difference(full).Len() != 0 {
					t.Fatalf("%s %s trial %d: restricted %s, direct %s", cons, ad, trial, got.Select(bound), want)
				}
			}
		}
	}
}

func TestMagicThroughConstructorEngine(t *testing.T) {
	// E7 in miniature: the generated constructors run on the ordinary
	// engine, one grounded system per bound value.
	en, res, inT := restricted(t, "ahead", "bf")
	base := workload.EdgesToRelation(inT, workload.Chain(6))
	for src, want := range map[string]int{"n0000": 6, "n0004": 2, "n0006": 0} {
		out := applyBound(t, en, res, base, src)
		if got := out.Select(func(tup value.Tuple) bool { return tup[0] == value.Str(src) }); got.Len() != want {
			t.Errorf("from %s: %d answers, want %d: %s", src, got.Len(), want, out)
		}
	}
}

func TestMagicGoalMustBeDerived(t *testing.T) {
	m, _ := parser.ParseModule(closureSrc)
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	rec := RecursiveFromSigs(chk.Constructors)
	for _, tc := range []struct{ cons, ad, want string }{
		{"invert", "bf", "not a recursive constructor"},
		{"nosuch", "bf", "not a recursive constructor"},
		{"via", "bf", "takes arguments"},
		{"ahead", "ff", "does not bind"},
		{"ahead", "b", "does not bind"},
	} {
		if _, err := Restrict(chk.Constructors, rec, tc.cons, tc.ad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Restrict(%s, %s): %v, want %q", tc.cons, tc.ad, err, tc.want)
		}
	}
}
