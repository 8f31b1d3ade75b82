package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fixpoint"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Shared schema for the paper's CAD example.
var (
	partT      = schema.StringType()
	infrontT   = schema.NewRelationType("infrontrel", schema.NewRecordType("", schema.Attribute{Name: "front", Type: partT}, schema.Attribute{Name: "back", Type: partT}))
	aheadT     = schema.NewRelationType("aheadrel", schema.NewRecordType("", schema.Attribute{Name: "head", Type: partT}, schema.Attribute{Name: "tail", Type: partT}))
	ontopT     = schema.NewRelationType("ontoprel", schema.NewRecordType("", schema.Attribute{Name: "top", Type: partT}, schema.Attribute{Name: "base", Type: partT}))
	aboveT     = schema.NewRelationType("aboverel", schema.NewRecordType("", schema.Attribute{Name: "high", Type: partT}, schema.Attribute{Name: "low", Type: partT}))
	cardrelT   = schema.NewRelationType("cardrel", schema.NewRecordType("", schema.Attribute{Name: "number", Type: schema.CardinalType()}))
	anyRelType = infrontT
)

func mustParseConstructor(t *testing.T, src string) *ast.ConstructorDecl {
	t.Helper()
	m, err := parser.ParseModule("MODULE m;\n" + src + "\nEND m.")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			return cd
		}
	}
	t.Fatalf("no constructor in %q", src)
	return nil
}

// checked pairs a declaration and its result type with the positivity report
// the type checker computes for it (no selectors resolved): the arguments of
// Registry.Register.
func checked(d *ast.ConstructorDecl, result schema.RelationType) (*ast.ConstructorDecl, schema.RelationType, positivity.Report) {
	return d, result, positivity.CheckConstructor(d, nil)
}

func mustParseModule(t *testing.T, src string) *ast.Module {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// addSelectors registers every selector declared in src into the env.
func addSelectors(t *testing.T, env *eval.Env, src string) {
	t.Helper()
	m := mustParseModule(t, src)
	for _, d := range m.Decls {
		if sd, ok := d.(*ast.SelectorDecl); ok {
			env.Selectors[sd.Name] = sd
		}
	}
}

const aheadSrc = `
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;`

func pairs(ps ...[2]string) []value.Tuple {
	out := make([]value.Tuple, len(ps))
	for i, p := range ps {
		out[i] = value.NewTuple(value.Str(p[0]), value.Str(p[1]))
	}
	return out
}

func newAheadEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, aheadSrc), aheadT)); err != nil {
		t.Fatalf("register: %v", err)
	}
	en := NewEngine(reg, eval.NewEnv())
	en.Mode = mode
	return en
}

func TestAheadTransitiveClosure(t *testing.T) {
	for _, mode := range []Mode{Naive, SemiNaive} {
		en := newAheadEngine(t, mode)
		infront := relation.MustFromTuples(infrontT, pairs(
			[2]string{"vase", "table"},
			[2]string{"table", "chair"},
			[2]string{"chair", "door"},
		)...)
		got, err := en.Apply("ahead", infront, nil)
		if err != nil {
			t.Fatalf("%s: apply: %v", mode, err)
		}
		want := relation.MustFromTuples(aheadT, pairs(
			[2]string{"vase", "table"}, [2]string{"table", "chair"},
			[2]string{"chair", "door"}, [2]string{"vase", "chair"},
			[2]string{"table", "door"}, [2]string{"vase", "door"},
		)...)
		if !got.Equal(want) {
			t.Errorf("%s: got %s, want %s", mode, got, want)
		}
		if en.LastStats().Instances != 1 {
			t.Errorf("%s: expected 1 instance, got %d", mode, en.LastStats().Instances)
		}
	}
}

func TestAheadOnCycle(t *testing.T) {
	// Closed-world termination on cyclic data — the case where PROLOG's
	// proof-oriented evaluation loops forever (section 3.4).
	en := newAheadEngine(t, SemiNaive)
	infront := relation.MustFromTuples(infrontT, pairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"},
	)...)
	got, err := en.Apply("ahead", infront, nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got.Len() != 9 { // full 3x3 closure on a cycle
		t.Errorf("cycle closure: got %d tuples, want 9: %s", got.Len(), got)
	}
}

func TestMutualRecursionAheadAbove(t *testing.T) {
	const aheadMutualSrc = `
CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
  <r.front, ab.low> OF EACH r IN Rel, EACH ab IN Ontop{above(Rel)}: r.back = ab.high
END ahead;`
	const aboveSrc = `
CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.top, ab.low> OF EACH r IN Rel, EACH ab IN Rel{above(Infront)}: r.base = ab.high,
  <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
END above;`

	for _, mode := range []Mode{Naive, SemiNaive} {
		reg := NewRegistry()
		if _, err := reg.Register(checked(mustParseConstructor(t, aheadMutualSrc), aheadT)); err != nil {
			t.Fatalf("register ahead: %v", err)
		}
		if _, err := reg.Register(checked(mustParseConstructor(t, aboveSrc), aboveT)); err != nil {
			t.Fatalf("register above: %v", err)
		}
		en := NewEngine(reg, eval.NewEnv())
		en.Mode = mode

		// vase on table, table in front of chair => vase above chair; the
		// lamp in front of the vase is then ahead of everything the vase is
		// above (table, chair), tuples only the joint system derives.
		infront := relation.MustFromTuples(infrontT, pairs(
			[2]string{"table", "chair"}, [2]string{"lamp", "vase"})...)
		ontop := relation.MustFromTuples(ontopT, pairs([2]string{"vase", "table"})...)

		got, err := en.Apply("ahead", infront, []eval.Resolved{{Rel: ontop}})
		if err != nil {
			t.Fatalf("%s: apply: %v", mode, err)
		}
		want := relation.MustFromTuples(aheadT, pairs(
			[2]string{"table", "chair"}, [2]string{"lamp", "vase"},
			[2]string{"lamp", "table"}, [2]string{"lamp", "chair"},
		)...)
		if !got.Equal(want) {
			t.Errorf("%s: ahead = %s, want %s", mode, got, want)
		}
		above, err := en.Apply("above", ontop, []eval.Resolved{{Rel: infront}})
		if err != nil {
			t.Fatalf("%s: apply above: %v", mode, err)
		}
		if !above.Contains(value.NewTuple(value.Str("vase"), value.Str("chair"))) {
			t.Errorf("%s: above missing <vase, chair>: %s", mode, above)
		}
		if en.LastStats().Instances != 2 {
			t.Errorf("%s: expected joint system of 2 instances, got %d", mode, en.LastStats().Instances)
		}
	}
}

func TestNonsenseConstructorOscillates(t *testing.T) {
	const nonsenseSrc = `
CONSTRUCTOR nonsense FOR Rel: infrontrel (): infrontrel;
BEGIN
  EACH r IN Rel: NOT (r IN Rel{nonsense})
END nonsense;`
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, nonsenseSrc), infrontT)); err != nil {
		t.Fatalf("register: %v", err)
	}
	en := NewEngine(reg, eval.NewEnv())
	infront := relation.MustFromTuples(infrontT, pairs([2]string{"a", "b"})...)
	_, err := en.Apply("nonsense", infront, nil)
	if err == nil {
		t.Fatal("expected oscillation error")
	}
	var osc *fixpoint.OscillationError
	if !asErr(err, &osc) {
		t.Fatalf("expected OscillationError, got %v", err)
	}
	if osc.Period != 2 {
		t.Errorf("expected period 2 (paper's {} -> Rel -> {} alternation), got %d", osc.Period)
	}
}

func TestStrangeConstructorConverges(t *testing.T) {
	// Section 3.3: Rel = {0..6}, strange keeps r iff no s in strange with
	// r.number = s.number+1; the limit is {0,2,4,6}.
	const strangeSrc = `
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;`
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, strangeSrc), cardrelT)); err != nil {
		t.Fatalf("register: %v", err)
	}
	en := NewEngine(reg, eval.NewEnv())
	var tuples []value.Tuple
	for i := int64(0); i <= 6; i++ {
		tuples = append(tuples, value.NewTuple(value.Int(i)))
	}
	base := relation.MustFromTuples(cardrelT, tuples...)
	got, err := en.Apply("strange", base, nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := relation.MustFromTuples(cardrelT,
		value.NewTuple(value.Int(0)), value.NewTuple(value.Int(2)),
		value.NewTuple(value.Int(4)), value.NewTuple(value.Int(6)))
	if !got.Equal(want) {
		t.Errorf("strange limit: got %s, want %s", got, want)
	}
	if en.LastStats().Mode != Naive {
		t.Errorf("non-positive constructor must run naive, got %s", en.LastStats().Mode)
	}
}

func TestUnknownConstructor(t *testing.T) {
	en := newAheadEngine(t, SemiNaive)
	_, err := en.Apply("nope", relation.New(infrontT), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown constructor") {
		t.Errorf("expected unknown constructor error, got %v", err)
	}
}

func TestArityMismatch(t *testing.T) {
	en := newAheadEngine(t, SemiNaive)
	_, err := en.Apply("ahead", relation.New(infrontT), []eval.Resolved{{Rel: relation.New(anyRelType)}})
	if err == nil || !strings.Contains(err.Error(), "expects 0 argument") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestEmptyBaseRelation(t *testing.T) {
	en := newAheadEngine(t, SemiNaive)
	got, err := en.Apply("ahead", relation.New(infrontT), nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !got.IsEmpty() {
		t.Errorf("closure of empty relation must be empty, got %s", got)
	}
}

// TestNaiveAndSemiNaiveAgreeOnChains: both strategies compute the same
// closure in the same number of rounds — on a chain of n edges, the paper's
// ahead_n sequence reaches its limit at n and one more round confirms it, so
// n+1 — and on the cycle closing the chain.
func TestNaiveAndSemiNaiveAgreeOnChains(t *testing.T) {
	for n := 2; n <= 20; n += 6 {
		var tuples []value.Tuple
		for i := 0; i < n; i++ {
			tuples = append(tuples, value.NewTuple(
				value.Str(nodeName(i)), value.Str(nodeName(i+1))))
		}
		infront := relation.MustFromTuples(infrontT, tuples...)
		cycle := relation.MustFromTuples(infrontT, append(tuples,
			value.NewTuple(value.Str(nodeName(n)), value.Str(nodeName(0))))...)

		enN := newAheadEngine(t, Naive)
		gotN, err := enN.Apply("ahead", infront, nil)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		enS := newAheadEngine(t, SemiNaive)
		gotS, err := enS.Apply("ahead", infront, nil)
		if err != nil {
			t.Fatalf("semi-naive: %v", err)
		}
		if !gotN.Equal(gotS) {
			t.Fatalf("n=%d: naive %d tuples, semi-naive %d tuples", n, gotN.Len(), gotS.Len())
		}
		wantLen := (n + 1) * n / 2 // closure of a chain of n edges
		if gotN.Len() != wantLen {
			t.Errorf("n=%d: closure size %d, want %d", n, gotN.Len(), wantLen)
		}
		if rn, rs := enN.LastStats().Rounds, enS.LastStats().Rounds; rn != n+1 || rs != n+1 {
			t.Errorf("n=%d: naive %d rounds, semi-naive %d, want diameter+1 = %d", n, rn, rs, n+1)
		}

		cycN, err := enN.Apply("ahead", cycle, nil)
		if err != nil {
			t.Fatalf("naive cycle: %v", err)
		}
		cycS, err := enS.Apply("ahead", cycle, nil)
		if err != nil {
			t.Fatalf("semi-naive cycle: %v", err)
		}
		if want := (n + 1) * (n + 1); !cycN.Equal(cycS) || cycS.Len() != want {
			t.Errorf("n=%d cycle: naive %d tuples, semi-naive %d, want %d", n, cycN.Len(), cycS.Len(), want)
		}
		if rn, rs := enN.LastStats().Rounds, enS.LastStats().Rounds; rn != rs {
			t.Errorf("n=%d cycle: naive %d rounds, semi-naive %d", n, rn, rs)
		}
	}
}

func nodeName(i int) string { return "n" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func asErr[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
