package horn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
)

const cadTypes = `
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
`

const aheadSrc = `
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
`

func checkedModule(t *testing.T, src string) *typecheck.Checker {
	t.Helper()
	m, err := parser.ParseModule("MODULE m;\n" + src + "\nEND m.")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := typecheck.New()
	if err := c.CheckModule(m); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return c
}

func TestFromApplicationAhead(t *testing.T) {
	c := checkedModule(t, cadTypes+aheadSrc)
	base := RelPred{Pred: "infront", Elem: c.RelTypes["infrontrel"].Element}
	tr, err := FromApplication(c.Constructors, "ahead", base, nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if len(tr.Rules) != 2 {
		t.Fatalf("expected 2 rules, got %d:\n%v", len(tr.Rules), tr.Rules)
	}
	// Rule 1: goal(X,Y) :- infront(X,Y).
	r1 := tr.Rules[0]
	if len(r1.Body) != 1 || r1.Body[0].Pred != "infront" {
		t.Errorf("rule 1 should copy infront: %s", r1)
	}
	// Rule 2: goal(X,Y) :- infront(X,Z), goal(Z,Y).
	r2 := tr.Rules[1]
	if len(r2.Body) != 2 || r2.Body[0].Pred != "infront" || r2.Body[1].Pred != tr.GoalPred {
		t.Errorf("rule 2 should be linear-recursive: %s", r2)
	}
	// The join variable must be shared between the two body atoms.
	if r2.Body[0].Args[1] != r2.Body[1].Args[0] {
		t.Errorf("rule 2 join variable not unified: %s", r2)
	}
	if r2.Head.Args[0] != r2.Body[0].Args[0] || r2.Head.Args[1] != r2.Body[1].Args[1] {
		t.Errorf("rule 2 head projection wrong: %s", r2)
	}
}

func TestEquivalenceAheadVsSLD(t *testing.T) {
	c := checkedModule(t, cadTypes+aheadSrc)
	infrontT := c.RelTypes["infrontrel"]
	aheadT := c.RelTypes["aheadrel"]

	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "d"}}
	var tuples []value.Tuple
	for _, e := range edges {
		tuples = append(tuples, value.NewTuple(value.Str(e[0]), value.Str(e[1])))
	}
	infront := relation.MustFromTuples(infrontT, tuples...)

	// Set-oriented (constructor) evaluation.
	reg := core.NewRegistry()
	if _, err := reg.Register(c.Constructors["ahead"].Decl, aheadT, c.Constructors["ahead"].Positivity); err != nil {
		t.Fatalf("register: %v", err)
	}
	en := core.NewEngine(reg, eval.NewEnv())
	setResult, err := en.Apply("ahead", infront, nil)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}

	// Proof-oriented evaluation over the translation.
	tr, err := FromApplication(c.Constructors, "ahead",
		RelPred{Pred: "infront", Elem: infrontT.Element}, nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	prog := prolog.NewProgram(tr.Rules...)
	for _, f := range FactsFromRelation("infront", infront) {
		prog.Add(f)
	}
	pe := prolog.NewEngine(prog)
	goal := prolog.NewAtom(tr.GoalPred, prolog.V(0), prolog.V(1))

	for name, solve := range map[string]func(prolog.Atom) ([][]value.Value, error){
		"sld":    pe.Solve,
		"tabled": pe.SolveTabled,
	} {
		answers, err := solve(goal)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prologResult, err := RelationFromAnswers(aheadT, answers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !prologResult.Equal(setResult) {
			t.Errorf("%s: prolog %s != constructor %s", name, prologResult, setResult)
		}
	}
}

func TestSLDNonTerminationOnCycles(t *testing.T) {
	// Pure SLD on cyclic data diverges (the endless loops of section 3.4);
	// the step budget converts that into an error, while tabled evaluation
	// and the constructor engine both terminate.
	prog := prolog.NewProgram(
		prolog.Rule(prolog.NewAtom("path", prolog.V(0), prolog.V(1)),
			prolog.NewAtom("edge", prolog.V(0), prolog.V(1))),
		prolog.Rule(prolog.NewAtom("path", prolog.V(0), prolog.V(1)),
			prolog.NewAtom("edge", prolog.V(0), prolog.V(2)),
			prolog.NewAtom("path", prolog.V(2), prolog.V(1))),
		prolog.Fact("edge", value.Str("a"), value.Str("b")),
		prolog.Fact("edge", value.Str("b"), value.Str("a")),
	)
	pe := prolog.NewEngine(prog)
	pe.MaxSteps = 100_000
	_, err := pe.Solve(prolog.NewAtom("path", prolog.V(0), prolog.V(1)))
	if err == nil {
		t.Fatal("expected SLD to exhaust its budget on cyclic data")
	}
	answers, err := pe.SolveTabled(prolog.NewAtom("path", prolog.V(0), prolog.V(1)))
	if err != nil {
		t.Fatalf("tabled: %v", err)
	}
	if len(answers) != 4 {
		t.Errorf("tabled answers: got %d, want 4", len(answers))
	}
}

// randomProgram generates a random positive Datalog program: EDB preds e1,e2
// (binary), IDB preds p1..pk with linear and nonlinear recursive rules.
func randomProgram(rng *rand.Rand, nIDB int) *prolog.Program {
	prog := prolog.NewProgram()
	idb := make([]string, nIDB)
	for i := range idb {
		idb[i] = fmt.Sprintf("p%d", i+1)
	}
	edb := []string{"e1", "e2"}
	for i, p := range idb {
		// Base rule: copy from a random EDB predicate.
		e := edb[rng.Intn(len(edb))]
		prog.Add(prolog.Rule(
			prolog.NewAtom(p, prolog.V(0), prolog.V(1)),
			prolog.NewAtom(e, prolog.V(0), prolog.V(1))))
		// 1-2 join rules over EDB and already-declared IDB preds.
		for k := 0; k < 1+rng.Intn(2); k++ {
			var q string
			if i > 0 && rng.Intn(2) == 0 {
				q = idb[rng.Intn(i+1)] // may be self (recursion) or earlier
			} else {
				q = p // self-recursive
			}
			first := edb[rng.Intn(len(edb))]
			prog.Add(prolog.Rule(
				prolog.NewAtom(p, prolog.V(0), prolog.V(2)),
				prolog.NewAtom(first, prolog.V(0), prolog.V(1)),
				prolog.NewAtom(q, prolog.V(1), prolog.V(2))))
		}
	}
	return prog
}

func randomEdges(rng *rand.Rand, nodes, edges int) []value.Tuple {
	seen := make(map[[2]int]bool)
	var out []value.Tuple
	for len(out) < edges {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, value.NewTuple(
			value.Str(fmt.Sprintf("n%d", a)), value.Str(fmt.Sprintf("n%d", b))))
	}
	return out
}

// TestEquivalenceRandomPrograms is the executable form of the section 3.4
// lemma: for random positive Datalog programs and random data, the
// constructor translation evaluated set-orientedly agrees with tabled
// resolution over the original program.
func TestEquivalenceRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	for trial := 0; trial < 30; trial++ {
		prog := randomProgram(rng, 1+rng.Intn(3))
		bundle, err := ToConstructors(prog, schema.StringType())
		if err != nil {
			t.Fatalf("trial %d: translate: %v", trial, err)
		}

		reg := core.NewRegistry()
		for _, p := range bundle.IDB {
			if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p], positivity.CheckConstructor(bundle.Decls[p], nil)); err != nil {
				t.Fatalf("trial %d: register %s: %v", trial, p, err)
			}
		}
		en := core.NewEngine(reg, eval.NewEnv())

		// Random data for the EDB predicates.
		data := make(map[string]*relation.Relation)
		for _, e := range bundle.EDB {
			data[e] = relation.MustFromTuples(bundle.RelTypes[e],
				randomEdges(rng, 4+rng.Intn(4), 3+rng.Intn(6))...)
		}
		fullProg := prolog.NewProgram(prog.Clauses()...)
		for _, e := range bundle.EDB {
			for _, f := range FactsFromRelation(e, data[e]) {
				fullProg.Add(f)
			}
		}

		args := make([]eval.Resolved, 0, len(bundle.EDB)+len(bundle.IDB))
		for _, e := range bundle.EDB {
			args = append(args, eval.Resolved{Rel: data[e]})
		}
		for _, q := range bundle.IDB {
			args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[q])})
		}

		pe := prolog.NewEngine(fullProg)
		for _, goalPred := range bundle.IDB {
			seed := relation.New(bundle.RelTypes[goalPred])
			setResult, err := en.Apply(ConstructorName(goalPred), seed, args)
			if err != nil {
				t.Fatalf("trial %d: apply %s: %v\nprogram:\n%s", trial, goalPred, err, prog)
			}
			answers, err := pe.SolveTabled(prolog.NewAtom(goalPred, prolog.V(0), prolog.V(1)))
			if err != nil {
				t.Fatalf("trial %d: tabled %s: %v", trial, goalPred, err)
			}
			prologResult, err := RelationFromAnswers(bundle.RelTypes[goalPred], answers)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !prologResult.Equal(setResult) {
				t.Errorf("trial %d: %s: prolog %d tuples != constructor %d tuples\nprogram:\n%s",
					trial, goalPred, prologResult.Len(), setResult.Len(), prog)
			}
		}
	}
}
