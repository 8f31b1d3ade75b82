package eval

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
)

var (
	partT    = schema.StringType()
	infrontT = schema.RelationType{Name: "infrontrel",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "front", Type: partT}, {Name: "back", Type: partT}}}}
	objT = schema.RelationType{Name: "objectrel",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "part", Type: partT}}}, Key: []string{"part"}}
)

func env(t *testing.T) *Env {
	t.Helper()
	e := NewEnv()
	e.Rels["Infront"] = relation.MustFromTuples(infrontT,
		value.NewTuple(value.Str("vase"), value.Str("table")),
		value.NewTuple(value.Str("table"), value.Str("chair")),
		value.NewTuple(value.Str("chair"), value.Str("door")),
	)
	e.Rels["Objects"] = relation.MustFromTuples(objT,
		value.NewTuple(value.Str("vase")),
		value.NewTuple(value.Str("table")),
		value.NewTuple(value.Str("chair")),
	)
	return e
}

// evalTyped evaluates s the way a session does: type-checked first, over the
// environment's relations and selectors, so that every set
// expression and range in it carries the type it evaluates under.
func evalTyped(t *testing.T, e *Env, s *ast.SetExpr) (*relation.Relation, error) {
	t.Helper()
	chk := typecheck.New()
	chk.RelTypes["infrontrel"] = infrontT
	chk.VarType = func(name string) (schema.RelationType, bool) {
		rel, ok := e.Rels[name]
		if !ok {
			return schema.RelationType{}, false
		}
		return rel.Type(), true
	}
	m := &ast.Module{}
	for _, d := range e.Selectors {
		m.Decls = append(m.Decls, d)
	}
	if err := chk.CheckModule(m); err != nil {
		t.Fatalf("selectors: %v", err)
	}
	r := &ast.Range{Sub: s}
	if _, _, err := chk.CheckQuery(r, nil); err != nil {
		t.Fatalf("check %s: %v", s, err)
	}
	return e.Range(r)
}

func evalSet(t *testing.T, e *Env, src string) *relation.Relation {
	t.Helper()
	s, err := parser.ParseSetExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	out, err := evalTyped(t, e, s)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return out
}

func TestSelection(t *testing.T) {
	got := evalSet(t, env(t), `{EACH r IN Infront: r.front = "table"}`)
	if got.Len() != 1 || !got.Contains(value.NewTuple(value.Str("table"), value.Str("chair"))) {
		t.Errorf("selection: %s", got)
	}
}

func TestJoinWithTargetList(t *testing.T) {
	got := evalSet(t, env(t),
		`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`)
	want := []value.Tuple{
		value.NewTuple(value.Str("vase"), value.Str("chair")),
		value.NewTuple(value.Str("table"), value.Str("door")),
	}
	if got.Len() != len(want) {
		t.Fatalf("join: %s", got)
	}
	for _, w := range want {
		if !got.Contains(w) {
			t.Errorf("missing %s in %s", w, got)
		}
	}
}

func TestUnionOfBranches(t *testing.T) {
	got := evalSet(t, env(t), `{EACH r IN Infront: r.front = "vase", EACH r IN Infront: r.front = "chair"}`)
	if got.Len() != 2 {
		t.Errorf("union: %s", got)
	}
}

func TestLiteralBranches(t *testing.T) {
	got := evalSet(t, env(t), `{<"a","b">, <"a","b">, <"c","d">}`)
	if got.Len() != 2 {
		t.Errorf("literal set semantics: %s", got)
	}
}

func TestQuantifiers(t *testing.T) {
	e := env(t)
	// Referential integrity shape: both ends known objects.
	got := evalSet(t, e, `{EACH r IN Infront:
		SOME a IN Objects (r.front = a.part) AND SOME b IN Objects (r.back = b.part)}`)
	// chair->door fails (door not an object).
	if got.Len() != 2 {
		t.Errorf("SOME: %s", got)
	}
	// ALL over an empty range is true.
	e.Rels["Empty"] = relation.New(objT)
	got2 := evalSet(t, e, `{EACH r IN Infront: ALL x IN Empty (x.part = "nope")}`)
	if got2.Len() != 3 {
		t.Errorf("ALL over empty: %s", got2)
	}
}

func TestMembership(t *testing.T) {
	e := env(t)
	got := evalSet(t, e, `{EACH r IN Infront: NOT (<r.back, r.front> IN Infront)}`)
	if got.Len() != 3 {
		t.Errorf("tuple membership: %s", got)
	}
	e.Rels["Copy"] = e.Rels["Infront"]
	got2 := evalSet(t, e, `{EACH r IN Infront: r IN Copy}`)
	if got2.Len() != 3 {
		t.Errorf("variable membership: %s", got2)
	}
}

func TestArithmetic(t *testing.T) {
	numT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "n", Type: schema.IntType()}}}}
	e := NewEnv()
	e.Rels["Nums"] = relation.MustFromTuples(numT,
		value.NewTuple(value.Int(1)), value.NewTuple(value.Int(2)),
		value.NewTuple(value.Int(3)), value.NewTuple(value.Int(4)))
	got := evalSet(t, e, `{EACH r IN Nums: r.n MOD 2 = 0}`)
	if got.Len() != 2 {
		t.Errorf("MOD: %s", got)
	}
	got2 := evalSet(t, e, `{EACH r IN Nums: SOME s IN Nums (r.n = s.n + 1)}`)
	if got2.Len() != 3 {
		t.Errorf("s.n+1: %s", got2)
	}
	// Division by zero is a runtime error.
	s, _ := parser.ParseSetExpr(`{EACH r IN Nums: r.n DIV 0 = 1}`)
	if _, err := evalTyped(t, e, s); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division by zero, got %v", err)
	}
}

func TestNestedRangeExpression(t *testing.T) {
	// Range nesting of [JaKo 83]: N1's right-hand side evaluates directly.
	got := evalSet(t, env(t),
		`{EACH r IN {EACH s IN Infront: s.front = "vase"}: TRUE}`)
	if got.Len() != 1 {
		t.Errorf("nested range: %s", got)
	}
}

func TestSelectorApplication(t *testing.T) {
	e := env(t)
	e.Selectors = selectorsOf(t, `
MODULE m;
SELECTOR hidden_by (Obj: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END m.
`)
	r, err := parser.ParseRange(`Infront[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Range(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("selector: %s", got)
	}
	// Wrong arity is an error.
	r2, _ := parser.ParseRange(`Infront[hidden_by]`)
	if _, err := e.Range(r2); err == nil {
		t.Error("missing selector argument must fail")
	}
}

// TestErrorsSurfacePosition evaluates branches no checker has seen: the
// evaluator's own name, attribute and kind checks are safety code behind the
// static check, and must still report.
func TestErrorsSurfacePosition(t *testing.T) {
	e := env(t)
	for _, src := range []string{
		`{EACH r IN Nowhere: TRUE}`,
		`{EACH r IN Infront: r.nope = "x"}`,
		`{EACH r IN Infront: r.front = 1}`,
		`{EACH r IN Infront, EACH r IN Infront: TRUE}`,
	} {
		s, err := parser.ParseSetExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := e.SetExpr(s, infrontT); err == nil {
			t.Errorf("eval %q: expected error", src)
		}
	}
	// So is a set expression reached without its type.
	r, _ := parser.ParseRange(`{EACH r IN Infront: TRUE}`)
	if _, err := e.Range(r); err == nil || !strings.Contains(err.Error(), "not type-checked") {
		t.Errorf("untyped set expression: %v", err)
	}
}

func TestIndexPlanMatchesNaive(t *testing.T) {
	// The equi-join planner must not change results: compare the indexed
	// join against a full cross-product filter on a larger relation.
	e := NewEnv()
	rel := relation.New(infrontT)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, x := range names {
		for j, y := range names {
			if (i+j)%3 == 0 {
				rel.Add(value.NewTuple(value.Str(x), value.Str(y)))
			}
		}
	}
	e.Rels["R"] = rel
	joined := evalSet(t, e, `{<f.front, b.back> OF EACH f IN R, EACH b IN R: f.back = b.front}`)
	// Reference: nested loops in Go.
	want := relation.New(infrontT)
	rel.Each(func(f value.Tuple) bool {
		rel.Each(func(b value.Tuple) bool {
			if f[1] == b[0] {
				want.Add(value.NewTuple(f[0], b[1]))
			}
			return true
		})
		return true
	})
	if !joined.Equal(want) {
		t.Errorf("indexed join %d tuples, reference %d", joined.Len(), want.Len())
	}
}

func TestEvalWithDeclaredResultType(t *testing.T) {
	e := env(t)
	aheadT := schema.RelationType{Name: "aheadrel",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "head", Type: partT}, {Name: "tail", Type: partT}}}}
	s, _ := parser.ParseSetExpr(`{EACH r IN Infront: TRUE}`)
	got, err := e.SetExpr(s, aheadT)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type().Element.Attrs[0].Name != "head" {
		t.Errorf("declared result type not used: %s", got.Type())
	}
}

// TestPlanBranchOrderAndProbes pins the one branch planner: without
// cardinalities the declared order stands; with them the smallest range moves
// to the front only when it is more than 8x smaller than the declared outer;
// probes attach to the binding that comes later in the chosen order; and the
// executor runs the plan Describe renders.
func TestPlanBranchOrderAndProbes(t *testing.T) {
	s, err := parser.ParseSetExpr(
		`{<f.front, g.back> OF EACH f IN Big, EACH g IN Small: f.back = g.front}`)
	if err != nil {
		t.Fatal(err)
	}
	br := &s.Branches[0]
	declared := []string{"EACH f IN Big", "EACH g IN Small [probe front = f.back]"}
	reordered := []string{"EACH g IN Small", "EACH f IN Big [probe back = g.front]"}
	for _, tc := range []struct {
		name string
		card []int
		want []string
	}{
		{"no cardinalities", nil, declared},
		{"exactly 8x smaller stays", []int{72, 9}, declared},
		{"more than 8x smaller leads", []int{73, 9}, reordered},
		{"smaller outer stays", []int{9, 90}, declared},
	} {
		plan, err := PlanBranch(br, tc.card)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := plan.Describe(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: plan %q, want %q", tc.name, got, tc.want)
		}
	}

	big, small := relation.New(infrontT), relation.New(infrontT)
	for i := 0; i < 90; i++ {
		big.Add(value.NewTuple(value.Str(fmt.Sprintf("a%d", i)), value.Str(fmt.Sprintf("b%d", i%9))))
	}
	for i := 0; i < 9; i++ {
		small.Add(value.NewTuple(value.Str(fmt.Sprintf("b%d", i)), value.Str("end")))
	}
	e := NewEnv()
	e.Rels["Big"], e.Rels["Small"] = big, small
	e.ExecStats = &ExecStats{}
	out, err := evalTyped(t, e, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 90 {
		t.Fatalf("join produced %d rows, want 90", out.Len())
	}
	ops := e.ExecStats.Ops()
	if len(ops) < 2 || ops[0].Op != "scan(g)" || ops[0].RowsIn != 9 || ops[1].Op != "hash-join(f)" {
		t.Fatalf("executor did not drive the join from the small side: %+v", ops)
	}
	ran := e.ExecStats.PlanOf(br)
	if ran == nil || !slices.Equal(ran.Describe(), reordered) {
		t.Fatalf("recorded plan %v, want %q", ran, reordered)
	}
}

// TestUnindexedRangesCarryNoIndex: the largest binding over an Env.Unindexed
// variable is the outer scan, so the sides joined to it are hashed; another
// probed one is indexed for the evaluation only. The result is the indexed
// plan's and no index stays memoized on an unindexed value.
func TestUnindexedRangesCarryNoIndex(t *testing.T) {
	s, err := parser.ParseSetExpr(`{<f.front, h.back> OF EACH h IN Small, EACH g IN Mid, EACH f IN Big:
		f.back = g.front AND g.back = h.front}`)
	if err != nil {
		t.Fatal(err)
	}
	rels := func() map[string]*relation.Relation {
		big, mid, small := relation.New(infrontT), relation.New(infrontT), relation.New(infrontT)
		for i := 0; i < 90; i++ {
			big.Add(value.NewTuple(value.Str(fmt.Sprintf("a%d", i)), value.Str(fmt.Sprintf("b%d", i%9))))
			mid.Add(value.NewTuple(value.Str(fmt.Sprintf("b%d", i%9)), value.Str(fmt.Sprintf("c%d", i%5))))
		}
		for i := 0; i < 5; i++ {
			small.Add(value.NewTuple(value.Str(fmt.Sprintf("c%d", i)), value.Str("end")))
		}
		return map[string]*relation.Relation{"Big": big, "Mid": mid, "Small": small}
	}
	e := NewEnv()
	e.Rels = rels()
	want, err := evalTyped(t, e, s)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 90 || e.Rels["Big"].Indexes() != 1 {
		t.Fatalf("indexed plan: %d rows, %d index(es) on Big", want.Len(), e.Rels["Big"].Indexes())
	}
	for _, unindexed := range [][]string{{"Big"}, {"Big", "Mid"}} {
		e := NewEnv()
		e.Rels = rels()
		e.ExecStats = &ExecStats{}
		e.Unindexed = make(map[string]bool)
		for _, name := range unindexed {
			e.Unindexed[name] = true
		}
		got, err := evalTyped(t, e, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("unindexed %v: %v, want %v", unindexed, got, want)
		}
		if plan := e.ExecStats.PlanOf(&s.Branches[0]).Describe(); plan[0] != "EACH f IN Big" {
			t.Errorf("unindexed %v: plan %q does not scan Big first", unindexed, plan)
		}
		for _, name := range unindexed {
			if n := e.Rels[name].Indexes(); n != 0 {
				t.Errorf("unindexed %v: %d index(es) memoized on %s", unindexed, n, name)
			}
		}
	}

	// A selector applied to an unindexed variable (a recursive occurrence
	// Rel{c}[sel(x)] in a retraction phase) scans it as well.
	e = NewEnv()
	e.Rels = rels()
	e.Unindexed = map[string]bool{"Big": true}
	e.Selectors = selectorsOf(t, `
MODULE m;
SELECTOR hidden_by (Obj: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END m.
`)
	r, err := parser.ParseRange(`Big[hidden_by("a1")]`)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.Range(r); err != nil || got.Len() != 1 || e.Rels["Big"].Indexes() != 0 {
		t.Errorf("selector over an unindexed variable: %v, %v; %d index(es) memoized on Big", got, err, e.Rels["Big"].Indexes())
	}
}

// TestReorderedBranchProjectsDeclaredFirstBinding: a branch without a target
// list yields the tuples of its first declared binding, also when the planner
// drives the join from a later, much smaller one.
func TestReorderedBranchProjectsDeclaredFirstBinding(t *testing.T) {
	big, small := relation.New(infrontT), relation.New(infrontT)
	for i := 0; i < 20; i++ {
		big.Add(value.NewTuple(value.Str(fmt.Sprintf("a%d", i)), value.Str("x")))
	}
	small.Add(value.NewTuple(value.Str("x"), value.Str("end")))
	s, err := parser.ParseSetExpr(`{EACH f IN Big, EACH g IN Small: f.back = g.front}`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnv()
	e.Rels["Big"], e.Rels["Small"] = big, small
	out, err := evalTyped(t, e, s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(big) {
		t.Fatalf("got %s, want the %d tuples of Big", out, big.Len())
	}
}

// selectorsOf parses a module and returns its selector declarations by name.
func selectorsOf(t *testing.T, module string) map[string]*ast.SelectorDecl {
	t.Helper()
	m, err := parser.ParseModule(module)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*ast.SelectorDecl)
	for _, d := range m.Decls {
		if sd, ok := d.(*ast.SelectorDecl); ok {
			out[sd.Name] = sd
		}
	}
	return out
}

// TestSelectorAccess pins the one access-path decision: the attribute is the
// one the body equates with the selector's single parameter, and the
// application is index-served only directly on a relation name.
func TestSelectorAccess(t *testing.T) {
	sels := selectorsOf(t, `
MODULE m;
SELECTOR hidden_by (Obj: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
SELECTOR mixed (Obj: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.back # "door" AND Obj = r.back END mixed;
SELECTOR odd FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front # r.back END odd;
SELECTOR fixed FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = "table" END fixed;
SELECTOR two (A: STRING; B: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = A AND r.back = B END two;
END m.
`)
	for _, tc := range []struct {
		rng, sel, attr string
		i              int
		indexed        bool
	}{
		{`Infront[hidden_by("x")]`, "hidden_by", "front", 0, true},
		{`Infront[mixed("x")]`, "mixed", "back", 0, true},
		{`Infront[odd][hidden_by("x")]`, "hidden_by", "front", 1, false},
		{`{EACH r IN Infront: TRUE}[hidden_by("x")]`, "hidden_by", "front", 0, false},
		{`Infront[odd]`, "odd", "", 0, false},
		{`Infront[fixed]`, "fixed", "", 0, false},
		{`Infront[two("a","b")]`, "two", "", 0, false},
	} {
		r, err := parser.ParseRange(tc.rng)
		if err != nil {
			t.Fatalf("parse %s: %v", tc.rng, err)
		}
		attr, indexed := SelectorAccess(sels[tc.sel], r, tc.i)
		if attr != tc.attr || indexed != tc.indexed {
			t.Errorf("SelectorAccess(%s, suffix %d) = %q, %v; want %q, %v",
				tc.rng, tc.i, attr, indexed, tc.attr, tc.indexed)
		}
	}
}

// TestOuterProbeOnlyOnRelationName: in the cold plan a closed equality on the
// first binding is an index probe when the range is a bare relation name, and
// a scan-and-filter when the range is derived; executing over values that
// carry no index takes that plan, building no index on a derived value. Both
// compute the same set.
func TestOuterProbeOnlyOnRelationName(t *testing.T) {
	e := env(t)
	e.Selectors = selectorsOf(t, `
MODULE m;
SELECTOR odd FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front # r.back END odd;
END m.
`)
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{`{EACH r IN Infront: r.front = "table"}`, []string{`EACH r IN Infront [probe front = "table"]`}},
		{`{EACH r IN Infront[odd]: r.front = "table"}`, []string{`EACH r IN Infront[odd]`}},
		{`{EACH r IN {EACH s IN Infront: TRUE}: r.front = "table"}`, []string{`EACH r IN {EACH s IN Infront: TRUE}`}},
	} {
		s, err := parser.ParseSetExpr(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanBranch(&s.Branches[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Describe(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: plan %q, want %q", tc.src, got, tc.want)
		}
		before := e.Rels["Infront"].Indexes()
		out, err := evalTyped(t, e, s)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 1 || !out.Contains(value.NewTuple(value.Str("table"), value.Str("chair"))) {
			t.Errorf("%s = %s", tc.src, out)
		}
		if grew := e.Rels["Infront"].Indexes() > before; grew != strings.Contains(tc.want[0], "[probe") {
			t.Errorf("%s: index memoized on Infront = %v", tc.src, grew)
		}
	}
}

// fixedResolver answers every constructor application with one relation: a
// derived value that outlives the evaluation, as a materialized view does.
type fixedResolver struct{ rel *relation.Relation }

func (f fixedResolver) ApplyConstructor(context.Context, string, *relation.Relation, []Resolved) (*relation.Relation, error) {
	return f.rel, nil
}

// TestOuterProbeOnCarriedIndex: an execution decides the first binding's
// access path on its value. A derived value is scanned, and no index is built
// on it, while it carries none; once it carries the index on the probed
// attribute, a branch over it and a selector applied to it both probe it.
func TestOuterProbeOnCarriedIndex(t *testing.T) {
	e := env(t)
	e.Selectors = selectorsOf(t, `
MODULE m;
SELECTOR hidden_by (Obj: STRING) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;
END m.
`)
	view := relation.MustFromTuples(infrontT, e.Rels["Infront"].Tuples()...)
	e.Constructors = fixedResolver{view}
	set, err := parser.ParseSetExpr(`{EACH r IN Infront{c}: r.front = "table"}`)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := parser.ParseRange(`Infront{c}[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewTuple(value.Str("table"), value.Str("chair"))
	run := func() (probed [2]bool) {
		t.Helper()
		e.ExecStats = &ExecStats{}
		e.ResetMemo()
		out := relation.New(infrontT)
		if err := e.EvalBranchIntoExcluding(&set.Branches[0], out, nil); err != nil {
			t.Fatal(err)
		}
		applied, err := e.Range(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*relation.Relation{out, applied} {
			if got.Len() != 1 || !got.Contains(want) {
				t.Errorf("point read over the view = %s", got)
			}
		}
		probed[0] = strings.Contains(e.ExecStats.PlanOf(&set.Branches[0]).Describe()[0], "[probe")
		_, probed[1], _ = e.ExecStats.SelectorPath(&sel.Suffixes[1])
		return probed
	}
	if got := run(); got != [2]bool{} || view.Indexes() != 0 {
		t.Errorf("view without an index: probed %v, %d index(es) built on it", got, view.Indexes())
	}
	view.IndexOn([]int{0})
	if got := run(); got != [2]bool{true, true} {
		t.Errorf("view carrying an index on front: probed %v, want both", got)
	}
}
