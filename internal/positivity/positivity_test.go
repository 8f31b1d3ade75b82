package positivity

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func mustPred(t *testing.T, src string) ast.Pred {
	t.Helper()
	p, err := parser.ParsePred(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func TestDepthCounting(t *testing.T) {
	cases := []struct {
		src      string
		positive bool
	}{
		// Even depths.
		{`r IN Rel`, true},
		{`NOT (NOT (r IN Rel))`, true},
		{`NOT (SOME s IN Other (NOT (s IN Rel)))`, true}, // Rel under two NOTs: depth 2, even
		{`SOME s IN Rel (s.a = 1)`, true},
		{`ALL s IN Other (s IN Rel)`, true}, // an ALL's body adds no level
		{`NOT ALL s IN Other (s IN Rel)`, false},
		{`NOT (r IN Rel)`, false},
	}
	for _, c := range cases {
		rep := CheckPred(mustPred(t, c.src), map[string]bool{"Rel": true}, nil)
		if rep.Positive() != c.positive {
			t.Errorf("%q: positive=%v, want %v (occurrences %+v)",
				c.src, rep.Positive(), c.positive, rep.Occurrences)
		}
	}
}

func TestALLRangeIsAntitone(t *testing.T) {
	// ALL s IN Rel (p) = NOT SOME s IN Rel (NOT p): Rel is under one NOT.
	rep := CheckPred(mustPred(t, `ALL s IN Rel (s.a = 1)`), map[string]bool{"Rel": true}, nil)
	if rep.Positive() {
		t.Errorf("an ALL range is antitone: %+v", rep.Occurrences)
	}
	rep = CheckPred(mustPred(t, `NOT ALL s IN Rel (s.a = 1)`), map[string]bool{"Rel": true}, nil)
	if !rep.Positive() {
		t.Errorf("a negated ALL range is monotone: %+v", rep.Occurrences)
	}
}

func TestNestedDepthAccumulates(t *testing.T) {
	// Two ALL bodies over one occurrence add nothing: depth 0.
	rep := CheckPred(mustPred(t,
		`ALL a IN Other (ALL b IN Other2 (x IN Rel))`), map[string]bool{"Rel": true}, nil)
	if !rep.Positive() {
		t.Errorf("an occurrence in nested ALL bodies is even: %+v", rep.Occurrences)
	}
	// An ALL body + NOT = depth 1.
	rep2 := CheckPred(mustPred(t,
		`ALL a IN Other (NOT (x IN Rel))`), map[string]bool{"Rel": true}, nil)
	if rep2.Positive() {
		t.Errorf("a negated occurrence in an ALL body is odd: %+v", rep2.Occurrences)
	}
	// NOT + an ALL range + NOT = depth 3.
	rep3 := CheckPred(mustPred(t,
		`NOT ALL a IN Other (NOT ALL b IN Rel (b.a = 1))`), map[string]bool{"Rel": true}, nil)
	if len(rep3.Occurrences) != 1 || rep3.Occurrences[0].Depth != 3 {
		t.Errorf("NOT, ALL range and NOT accumulate to depth 3: %+v", rep3.Occurrences)
	}
}

func TestCheckConstructorPaperExamples(t *testing.T) {
	parse := func(src string) *ast.ConstructorDecl {
		m, err := parser.ParseModule("MODULE m;\n" + src + "\nEND m.")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, d := range m.Decls {
			if cd, ok := d.(*ast.ConstructorDecl); ok {
				return cd
			}
		}
		t.Fatal("no constructor")
		return nil
	}
	ahead := parse(`
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;`)
	if rep := CheckConstructor(ahead, nil); !rep.Positive() {
		t.Errorf("ahead must be positive: %v", rep.Error())
	}

	nonsense := parse(`
CONSTRUCTOR nonsense FOR Rel: anytype (): anyothertype;
BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense;`)
	rep := CheckConstructor(nonsense, nil)
	if rep.Positive() {
		t.Error("nonsense must violate positivity")
	}
	if err := rep.Error(); err == nil || !strings.Contains(err.Error(), "Rel") {
		t.Errorf("violation must name the occurrence: %v", err)
	}

	// Every constructor application is tracked, whatever its base.
	global := parse(`
CONSTRUCTOR global FOR Rel: anytype (): anyothertype;
BEGIN EACH r IN Rel: NOT (r IN Other{global}) END global;`)
	if err := CheckConstructor(global, nil).Error(); err == nil || !strings.Contains(err.Error(), "Other{global}") {
		t.Errorf("a negated application over a global must be named as a violation: %v", err)
	}

	strange := parse(`
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;`)
	if rep := CheckConstructor(strange, nil); rep.Positive() {
		t.Error("strange must violate positivity (occurrence under one NOT)")
	}
}

// TestSelectorInputs: an occurrence feeding a selector takes the selector's
// polarity in that input, through its arguments, its FOR formal and every
// later suffix's FOR formal; an input read at both parities is a violation.
func TestSelectorInputs(t *testing.T) {
	m, err := parser.ParseModule(`
MODULE m;
TYPE nrel = RELATION OF RECORD a: INTEGER END;
SELECTOR notin (S: nrel) FOR R: nrel;
BEGIN EACH t IN R: NOT (t IN S) END notin;
SELECTOR outside (S: nrel) FOR R: nrel;
BEGIN EACH t IN R: ALL u IN S (u.a # t.a) END outside;
SELECTOR top () FOR R: nrel;
BEGIN EACH t IN R: ALL u IN R (u.a <= t.a) END top;
SELECTOR above (k: INTEGER) FOR R: nrel;
BEGIN EACH t IN R: t.a > k END above;
END m.`)
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]*ast.SelectorDecl)
	for _, d := range m.Decls {
		if sd, ok := d.(*ast.SelectorDecl); ok {
			decls[sd.Name] = sd
		}
	}
	sels := func(name string) *ast.SelectorDecl { return decls[name] }
	cases := []struct {
		src      string
		positive bool
	}{
		{`SOME x IN Rel[above(1)] (TRUE)`, true}, // a scalar formal contributes nothing
		{`SOME x IN Rel[notin(O)] (TRUE)`, true}, // notin's FOR formal is read positively
		{`SOME x IN O[notin(Rel)] (TRUE)`, false},
		{`NOT SOME x IN O[notin(Rel)] (TRUE)`, true},
		{`SOME x IN O[notin(O[notin(Rel)])] (TRUE)`, true},
		{`SOME x IN O[outside(Rel)] (TRUE)`, false}, // S is an ALL range in outside
		{`SOME x IN O[notin(Rel)][above(1)] (TRUE)`, false},
		{`SOME x IN Rel[top] (TRUE)`, false}, // R at both parities in top
		{`NOT SOME x IN Rel[top] (TRUE)`, false},
		{`SOME x IN Rel[above(1)][top] (TRUE)`, false},
		{`SOME x IN O[notin(Rel)][top] (TRUE)`, false},
		{`SOME x IN O[top] (x IN Rel)`, true},
	}
	for _, c := range cases {
		rep := CheckPred(mustPred(t, c.src), map[string]bool{"Rel": true}, sels)
		if rep.Positive() != c.positive {
			t.Errorf("%q: positive=%v, want %v (occurrences %+v)",
				c.src, rep.Positive(), c.positive, rep.Occurrences)
		}
	}
	// Without a resolver a selector passes its inputs through.
	if rep := CheckPred(mustPred(t, `SOME x IN O[notin(Rel)] (TRUE)`), map[string]bool{"Rel": true}, nil); !rep.Positive() {
		t.Errorf("unresolved selector changed the polarity: %+v", rep.Occurrences)
	}
}

// ---------------------------------------------------------------------------
// NNF rewriting (the lemma's proof mechanism)
// ---------------------------------------------------------------------------

func TestToNNFShapes(t *testing.T) {
	cases := map[string]string{
		`NOT (x.a = 1 AND x.b = 2)`:   "OR",
		`NOT (x.a = 1 OR x.b = 2)`:    "AND",
		`NOT (NOT (x.a = 1))`:         "x.a = 1",
		`NOT ALL r IN Rel (r.a = 1)`:  "SOME",
		`NOT SOME r IN Rel (r.a = 1)`: "ALL",
		`NOT (x.a < 1)`:               ">=",
	}
	for src, frag := range cases {
		nnf := ToNNF(mustPred(t, src))
		if !strings.Contains(nnf.String(), frag) {
			t.Errorf("ToNNF(%q) = %q, want fragment %q", src, nnf.String(), frag)
		}
	}
}

// pairT is the element type of the random predicates' relations R and S and
// of their free tuple variable x.
var pairT = schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
	{Name: "a", Type: schema.IntType()},
	{Name: "b", Type: schema.IntType()},
}}}

// randomPred generates a predicate over the tuple variable x and the
// relations R (the tracked name) and S: comparisons, AND, OR, NOT, SOME and
// ALL over either relation, and x's membership in either, so R occurs in
// SOME, ALL and IN ranges under any number of negations.
func randomPred(rng *rand.Rand, depth int) ast.Pred {
	rel := func() *ast.Range { return ast.RangeVar([]string{"R", "S"}[rng.Intn(2)]) }
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return ast.Member{VarTuple: "x", Range: rel()}
		}
		ops := []ast.CmpOp{ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe}
		term := func() ast.Term {
			if rng.Intn(2) == 0 {
				return ast.Field{Var: "x", Attr: []string{"a", "b"}[rng.Intn(2)]}
			}
			return ast.Const{Val: value.Int(int64(rng.Intn(4)))}
		}
		return ast.Cmp{Op: ops[rng.Intn(len(ops))], L: term(), R: term()}
	}
	switch rng.Intn(5) {
	case 0:
		return ast.And{L: randomPred(rng, depth-1), R: randomPred(rng, depth-1)}
	case 1:
		return ast.Or{L: randomPred(rng, depth-1), R: randomPred(rng, depth-1)}
	case 2:
		return ast.Not{P: randomPred(rng, depth-1)}
	default:
		return ast.Quant{All: rng.Intn(2) == 0, Var: "q", Range: rel(),
			Body: replaceVar(randomPred(rng, depth-1), rng)}
	}
}

// randomPair returns a random tuple of pairT.
func randomPair(rng *rand.Rand) value.Tuple {
	return value.NewTuple(value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(4))))
}

// evalPred evaluates p for x = tup over the given R and S, as the set
// expression {EACH x IN X: p} over the one-tuple relation X = {tup}.
func evalPred(t *testing.T, p ast.Pred, R, S *relation.Relation, tup value.Tuple) (bool, error) {
	t.Helper()
	env := eval.NewEnv()
	env.Rels["R"], env.Rels["S"] = R, S
	env.Rels["X"] = relation.MustFromTuples(pairT, tup)
	sel, err := env.SetExpr(&ast.SetExpr{Branches: []ast.Branch{{
		Binds: []ast.Binding{{Var: "x", Range: ast.RangeVar("X")}}, Where: p}}}, pairT)
	if err != nil {
		return false, err
	}
	return sel.Len() == 1, nil
}

// allToNotSome rewrites every ALL x IN r (p) into NOT SOME x IN r (NOT p),
// the rewriting the positivity lemma's proof reads ALL through.
func allToNotSome(p ast.Pred) ast.Pred {
	switch q := p.(type) {
	case ast.And:
		return ast.And{L: allToNotSome(q.L), R: allToNotSome(q.R)}
	case ast.Or:
		return ast.Or{L: allToNotSome(q.L), R: allToNotSome(q.R)}
	case ast.Not:
		return ast.Not{P: allToNotSome(q.P)}
	case ast.Quant:
		body := allToNotSome(q.Body)
		if q.All {
			return ast.Not{P: ast.Quant{Var: q.Var, Range: q.Range, Body: ast.Not{P: body}, Pos: q.Pos}}
		}
		return ast.Quant{Var: q.Var, Range: q.Range, Body: body, Pos: q.Pos}
	}
	return p
}

// TestNNFSemanticEquivalence checks, on random data, that ToNNF and the
// ALL-to-NOT-SOME rewriting preserve the predicate's value — the executable
// core of the positivity lemma's rewriting argument — and that neither
// changes the positivity verdict on R.
func TestNNFSemanticEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	verdict := func(p ast.Pred) bool { return CheckPred(p, map[string]bool{"R": true}, nil).Positive() }
	for trial := 0; trial < 500; trial++ {
		p := randomPred(rng, 4)
		rewritten := map[string]ast.Pred{"ToNNF": ToNNF(p), "ALL-to-NOT-SOME": allToNotSome(p)}
		R, S := relation.New(pairT), relation.New(pairT)
		for i := 0; i < rng.Intn(4); i++ {
			R.Add(randomPair(rng))
			S.Add(randomPair(rng))
		}
		x := randomPair(rng)
		got, err := evalPred(t, p, R, S, x)
		for name, q := range rewritten {
			if verdict(q) != verdict(p) {
				t.Fatalf("trial %d: %s is positive=%v but its %s form %s is positive=%v",
					trial, p, verdict(p), name, q, verdict(q))
			}
			got2, err2 := evalPred(t, q, R, S, x)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("trial %d: error mismatch: %v vs %v\np=%s", trial, err, err2, p)
			}
			if err == nil && got != got2 {
				t.Fatalf("trial %d: %s = %v but its %s form %s = %v", trial, p, got, name, q, got2)
			}
		}
	}
}

// replaceVar randomly rewrites some x references to the quantified variable
// q so quantifier bodies actually use their variable.
func replaceVar(p ast.Pred, rng *rand.Rand) ast.Pred {
	if rng.Intn(2) == 0 {
		return p
	}
	switch q := p.(type) {
	case ast.Cmp:
		if f, ok := q.L.(ast.Field); ok {
			return ast.Cmp{Op: q.Op, L: ast.Field{Var: "q", Attr: f.Attr}, R: q.R}
		}
	case ast.Member:
		return ast.Member{VarTuple: "q", Range: q.Range}
	}
	return p
}

// TestPositiveImpliesMonotonic checks the lemma on random predicates: a
// predicate positive in R never loses a tuple of the universe as R grows.
func TestPositiveImpliesMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	universe := relation.New(pairT)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			universe.Add(value.NewTuple(value.Int(int64(a)), value.Int(int64(b))))
		}
	}
	preds := []ast.Pred{mustPred(t, `SOME s IN R (s.a = x.a) OR NOT (NOT (x IN R))`)}
	for i := 0; i < 400; i++ {
		preds = append(preds, randomPred(rng, 4))
	}
	checked := 0
	for _, p := range preds {
		rep := CheckPred(p, map[string]bool{"R": true}, nil)
		if !rep.Positive() || len(rep.Occurrences) == 0 {
			continue
		}
		checked++
		R, S := relation.New(pairT), relation.New(pairT)
		for i := 0; i < 3; i++ {
			S.Add(randomPair(rng))
		}
		selectWith := func() *relation.Relation {
			out := relation.New(pairT)
			universe.Each(func(tup value.Tuple) bool {
				ok, err := evalPred(t, p, R, S, tup)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					out.Add(tup)
				}
				return true
			})
			return out
		}
		prev := selectWith()
		for step := 0; step < 6; step++ {
			R.Add(randomPair(rng))
			next := selectWith()
			if lost := prev.Difference(next); lost.Len() > 0 {
				t.Fatalf("%s is positive in R but lost %s when R grew to %s", p, lost, R)
			}
			prev = next
		}
	}
	if checked < 50 {
		t.Fatalf("only %d random predicates were positive in R; the generator no longer exercises the lemma", checked)
	}
}
