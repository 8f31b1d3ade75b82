package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/parser"
	"repro/internal/prolog"
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
		nested, moved := NestBranch(s.Branches[0], "")
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
		func(*ast.Range) (schema.RecordType, bool) { return sig.ForType.Element, true })
	if err != nil {
		t.Fatal(err)
	}

	// Evaluate both: full apply + filter vs the specialized constructor.
	reg := core.NewRegistry()
	if _, err := reg.Register(sig.Decl, sig.Result); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(specialized, sig.Result); err != nil {
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
	_, err := PushSelection(sig.Decl, sig.Result.Element, "res", pred, nil)
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
	_, err := PushSelection(sig.Decl, sig.Result.Element, "res", pred, nil)
	if err == nil || !strings.Contains(err.Error(), "positivity") {
		t.Errorf("expected positivity rejection, got %v", err)
	}
}

// ---------------------------------------------------------------------------
// Magic sets
// ---------------------------------------------------------------------------

func tcRules() []prolog.Clause {
	return []prolog.Clause{
		prolog.Rule(prolog.NewAtom("path", prolog.V(0), prolog.V(1)),
			prolog.NewAtom("edge", prolog.V(0), prolog.V(1))),
		prolog.Rule(prolog.NewAtom("path", prolog.V(0), prolog.V(1)),
			prolog.NewAtom("edge", prolog.V(0), prolog.V(2)),
			prolog.NewAtom("path", prolog.V(2), prolog.V(1))),
	}
}

func TestMagicTransformRestrictsComputation(t *testing.T) {
	prog := prolog.NewProgram(tcRules()...)
	// Two disconnected chains; binding the source to the small one must
	// keep the fixpoint away from the big one.
	for i := 0; i < 4; i++ {
		prog.Add(prolog.Fact("edge", value.Str(node("s", i)), value.Str(node("s", i+1))))
	}
	for i := 0; i < 40; i++ {
		prog.Add(prolog.Fact("edge", value.Str(node("big", i)), value.Str(node("big", i+1))))
	}
	goal := prolog.NewAtom("path", prolog.CStr(node("s", 0)), prolog.V(9))
	res, err := MagicTransform(prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	pe := prolog.NewEngine(res.Program)
	answers, err := pe.SolveTabled(res.Goal)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Errorf("restricted answers: %d, want 4", len(answers))
	}
	// The adorned extension must stay near the small chain's closure (15
	// pairs), far below the big chain's 820.
	peFull := prolog.NewEngine(prog)
	fullAns, err := peFull.SolveTabled(prolog.NewAtom("path", prolog.V(0), prolog.V(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(fullAns) <= len(answers)*10 {
		t.Errorf("expected strong restriction: full %d vs magic-visible %d", len(fullAns), len(answers))
	}
}

func node(p string, i int) string { return p + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestMagicAgreesWithDirectOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		prog := prolog.NewProgram(tcRules()...)
		edges := workload.RandomGraph(8, 12, rng.Int63())
		for _, e := range edges {
			prog.Add(prolog.Fact("edge",
				value.Str(workload.NodeName(e.From)), value.Str(workload.NodeName(e.To))))
		}
		src := value.Str(workload.NodeName(rng.Intn(8)))
		direct := prolog.NewEngine(prog)
		want, err := direct.SolveTabled(prolog.NewAtom("path", prolog.C(src), prolog.V(0)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := MagicTransform(prog, prolog.NewAtom("path", prolog.C(src), prolog.V(0)))
		if err != nil {
			t.Fatal(err)
		}
		pe := prolog.NewEngine(res.Program)
		got, err := pe.SolveTabled(res.Goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: magic %d answers, direct %d", trial, len(got), len(want))
		}
	}
}

func TestMagicThroughConstructorEngine(t *testing.T) {
	// The full E7 pipeline in miniature: magic-transform, translate to
	// constructors, evaluate set-orientedly.
	prog := prolog.NewProgram(tcRules()...)
	goal := prolog.NewAtom("path", prolog.CStr("n0000"), prolog.V(0))
	res, err := MagicTransform(prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := horn.ToConstructors(res.Program, schema.StringType())
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	for _, p := range bundle.IDB {
		if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p]); err != nil {
			t.Fatal(err)
		}
	}
	en := core.NewEngine(reg, eval.NewEnv())
	edges := workload.EdgesToRelation(bundle.RelTypes["edge"], workload.Chain(6))
	var args []eval.Resolved
	for _, e := range bundle.EDB {
		if e == "edge" {
			args = append(args, eval.Resolved{Rel: edges})
		} else {
			args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[e])})
		}
	}
	for _, q := range bundle.IDB {
		args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[q])})
	}
	seed := relation.New(bundle.RelTypes[res.Goal.Pred])
	out, err := en.Apply(horn.ConstructorName(res.Goal.Pred), seed, args)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable pairs from n0000 on a 6-chain: 6.
	got := out.Select(func(tup value.Tuple) bool { return tup[0] == value.Str("n0000") })
	if got.Len() != 6 {
		t.Errorf("magic through constructors: %d answers, want 6: %s", got.Len(), out)
	}
}

func TestMagicGoalMustBeDerived(t *testing.T) {
	prog := prolog.NewProgram(tcRules()...)
	_, err := MagicTransform(prog, prolog.NewAtom("edge", prolog.V(0), prolog.V(1)))
	if err == nil {
		t.Error("magic over a base predicate must fail")
	}
}
