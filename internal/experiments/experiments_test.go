// Package experiments holds the paper checks E1–E8 as tests: each one runs
// a figure or worked example of the paper on a small workload and asserts
// its qualitative claim. The package has no non-test code; performance is
// measured only by the gate under bench/.
package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	dbpl "repro"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
	"repro/internal/workload"
)

// aheadModule is the transitive-closure module of section 3.1.
const aheadModule = `
MODULE exp;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END exp.
`

// cadModule is the full mutual-recursion module of section 3.1.
const cadModule = `
MODULE cad;
TYPE parttype   = STRING;
TYPE objectrel  = RELATION part OF RECORD part: parttype END;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE ontoprel   = RELATION OF RECORD top, base: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
TYPE aboverel   = RELATION OF RECORD high, low: parttype END;

VAR Objects: objectrel;
VAR Infront: infrontrel;
VAR Ontop:   ontoprel;

SELECTOR refint FOR Rel: infrontrel;
BEGIN EACH r IN Rel:
  SOME r1 IN Objects (r.front = r1.part) AND
  SOME r2 IN Objects (r.back = r2.part)
END refint;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.front, ah.tail> OF EACH r IN Rel, EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
  <r.front, ab.low>  OF EACH r IN Rel, EACH ab IN Ontop{above(Rel)}: r.back = ab.high
END ahead;

CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN
  EACH r IN Rel: TRUE,
  <r.top, ab.low>  OF EACH r IN Rel, EACH ab IN Rel{above(Infront)}: r.base = ab.high,
  <r.top, ah.tail> OF EACH r IN Rel, EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
END above;
END cad.
`

// openCAD opens an in-memory database with cadModule executed.
func openCAD(t *testing.T) *dbpl.DB {
	t.Helper()
	db, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatal(err)
	}
	return db
}

// run executes stmts as a module of their own.
func run(db *dbpl.DB, stmts string) error {
	_, err := db.Exec("MODULE t;\n" + stmts + "\nEND t.")
	return err
}

// aheadEngine builds a core engine with aheadModule's constructor
// registered, and returns it with the Infront relation type.
func aheadEngine(t *testing.T, mode core.Mode) (*core.Engine, schema.RelationType) {
	t.Helper()
	m, err := parser.ParseModule(aheadModule)
	if err != nil {
		t.Fatal(err)
	}
	chk := typecheck.New()
	if err := chk.CheckModule(m); err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	sig := chk.Constructors["ahead"]
	if _, err := reg.Register(sig.Decl, sig.Result, sig.Positivity); err != nil {
		t.Fatal(err)
	}
	en := core.NewEngine(reg, eval.NewEnv())
	en.Mode = mode
	return en, chk.RelTypes["infrontrel"]
}

// TestE1 is Fig 1: assignment through a selected variable is the paper's
// guarded assignment (refint rejects an unknown object and leaves the value
// intact, accepts valid tuples), a keyed relation collapses duplicates, and
// Rel[sel] equals the selector's set expression.
func TestE1(t *testing.T) {
	db := openCAD(t)
	if err := run(db, `Objects := {<"vase">, <"table">, <"chair">};`); err != nil {
		t.Fatal(err)
	}
	if err := run(db, `Infront[refint] := {<"ghost","table">};`); err == nil {
		t.Error("refint accepted an unknown object")
	}
	if err := run(db, `Infront[refint] := {<"table","chair">};`); err != nil {
		t.Errorf("refint rejected valid tuples: %v", err)
	}
	if err := run(db, `Infront[refint] := {<"ghost","chair">};`); err == nil {
		t.Error("refint accepted an unknown object")
	}
	rel, _ := db.Relation("Infront")
	if rel.Len() != 1 || !rel.Contains(dbpl.NewTuple(dbpl.Str("table"), dbpl.Str("chair"))) {
		t.Errorf("failed assignment changed Infront: %s", rel)
	}
	if err := run(db, `Objects := {<"vase">, <"vase">};`); err != nil {
		t.Errorf("duplicate key: %v", err)
	}
	if objs, _ := db.Relation("Objects"); objs.Len() != 1 {
		t.Errorf("duplicate key did not collapse: %s", objs)
	}
	sel, err := db.Query(`Infront[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Query(`{EACH r IN Infront: r.front = "table"}`)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Equal(direct) || sel.Len() != 1 {
		t.Errorf("Rel[sel] = %s, set expression = %s", sel, direct)
	}
}

// TestE2ShapeAndAgreement is section 3.1's ahead_n convergence: naive and
// semi-naive evaluation compute the same closure in the same number of
// rounds on chains, cycles and trees, and a chain of n edges needs
// diameter+1 = n+1 rounds.
func TestE2ShapeAndAgreement(t *testing.T) {
	for _, n := range []int{8, 16} {
		for _, shape := range []string{"chain", "cycle", "tree"} {
			var edges []workload.Edge
			switch shape {
			case "chain":
				edges = workload.Chain(n)
			case "cycle":
				edges = workload.Cycle(n)
			default:
				// Depth chosen so the edge count is comparable to n.
				d := 1
				for (1<<(d+1))-2 < n {
					d++
				}
				edges = workload.Tree(2, d)
			}
			var res [2]*relation.Relation
			var rounds [2]int
			for i, mode := range []core.Mode{core.Naive, core.SemiNaive} {
				en, inT := aheadEngine(t, mode)
				var err error
				if res[i], err = en.Apply("ahead", workload.EdgesToRelation(inT, edges), nil); err != nil {
					t.Fatal(err)
				}
				rounds[i] = en.LastStats().Rounds
			}
			if !res[0].Equal(res[1]) {
				t.Errorf("%s n=%d: naive %d tuples, semi-naive %d", shape, n, res[0].Len(), res[1].Len())
			}
			if rounds[0] != rounds[1] {
				t.Errorf("%s n=%d: rounds differ (%d vs %d)", shape, n, rounds[0], rounds[1])
			}
			if shape == "chain" && rounds[0] != n+1 {
				t.Errorf("chain n=%d: rounds %d, want diameter+1 = %d", n, rounds[0], n+1)
			}
		}
	}
}

// TestE3 is section 3.1's mutual recursion over a generated CAD scene: one
// application grounds both constructors, and ahead strictly extends Infront
// through above. The paper's worked example (vase on table, table in front
// of chair) puts the vase above the chair.
func TestE3(t *testing.T) {
	db := openCAD(t)
	scene := workload.NewCADScene(2, 8, 3, 1985)
	ahead, err := db.Apply("ahead", scene.Infront, scene.Ontop)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.LastStats(); st.Instances != 2 {
		t.Errorf("mutual recursion must ground 2 instances, got %d", st.Instances)
	}
	if ahead.Len() <= scene.Infront.Len() {
		t.Errorf("ahead must strictly extend Infront: %d vs %d", ahead.Len(), scene.Infront.Len())
	}

	if _, err := db.Exec(`
MODULE data;
Objects := {<"vase">, <"table">, <"chair">};
Infront := {<"table","chair">};
Ontop   := {<"vase","table">};
END data.
`); err != nil {
		t.Fatal(err)
	}
	above, err := db.Query(`Ontop{above(Infront)}`)
	if err != nil {
		t.Fatal(err)
	}
	if !above.Contains(dbpl.NewTuple(dbpl.Str("vase"), dbpl.Str("chair"))) {
		t.Errorf("vase must be above chair: %s", above)
	}
}

// constructorDecl parses src and returns its single constructor.
func constructorDecl(t *testing.T, src string) *ast.ConstructorDecl {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Decls {
		if cd, ok := d.(*ast.ConstructorDecl); ok {
			return cd
		}
	}
	t.Fatal("no constructor in module")
	return nil
}

// TestE4 is section 3.3: the strict compiler rejects nonsense, forced
// evaluation oscillates with period 2, and strange converges to {0,2,4,6}
// on {0..6}.
func TestE4(t *testing.T) {
	nonsense := constructorDecl(t, `
MODULE m;
TYPE anyrel = RELATION OF RECORD a: STRING END;
CONSTRUCTOR nonsense FOR Rel: anyrel (): anyrel;
BEGIN EACH r IN Rel: NOT (r IN Rel{nonsense}) END nonsense;
END m.
`)
	anyT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "a", Type: schema.StringType()}}}}
	rep := positivity.CheckConstructor(nonsense, nil)
	if rep.Positive() {
		t.Error("strict compiler must reject nonsense")
	}
	loose := core.NewRegistry()
	if _, err := loose.Register(nonsense, anyT, rep); err != nil {
		t.Fatal(err)
	}
	_, err := core.NewEngine(loose, eval.NewEnv()).Apply("nonsense",
		relation.MustFromTuples(anyT, value.NewTuple(value.Str("x"))), nil)
	if err == nil || !strings.Contains(err.Error(), "oscillates with period 2") {
		t.Errorf("forced nonsense: %v, want oscillation with period 2", err)
	}

	strange := constructorDecl(t, `
MODULE m;
TYPE cardrel = RELATION OF RECORD number: CARDINAL END;
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;
END m.
`)
	cardT := schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "number", Type: schema.CardinalType()}}}}
	loose2 := core.NewRegistry()
	if _, err := loose2.Register(strange, cardT, positivity.CheckConstructor(strange, nil)); err != nil {
		t.Fatal(err)
	}
	var tups []value.Tuple
	for i := int64(0); i <= 6; i++ {
		tups = append(tups, value.NewTuple(value.Int(i)))
	}
	res, err := core.NewEngine(loose2, eval.NewEnv()).Apply("strange",
		relation.MustFromTuples(cardT, tups...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); !strings.Contains(got, "{<0>, <2>, <4>, <6>}") {
		t.Errorf("strange on {0..6} = %s, want {0,2,4,6}", got)
	}
}

// TestE5RandomAgreement is section 3.4's lemma as a randomized harness:
// random positive Datalog programs, translated to constructors and
// evaluated set-orientedly, answer every goal as tabled resolution does.
func TestE5RandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := 0
	for trial := 0; trial < 10; trial++ {
		prog := randomDatalog(rng, 1+rng.Intn(3))
		bundle, err := horn.ToConstructors(prog, schema.StringType())
		if err != nil {
			t.Fatal(err)
		}
		reg := core.NewRegistry()
		for _, p := range bundle.IDB {
			if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p], positivity.CheckConstructor(bundle.Decls[p], nil)); err != nil {
				t.Fatal(err)
			}
		}
		en := core.NewEngine(reg, eval.NewEnv())

		full := prolog.NewProgram(prog.Clauses()...)
		var args []eval.Resolved
		for _, e := range bundle.EDB {
			edges := workload.RandomGraph(4+rng.Intn(4), 4+rng.Intn(6), rng.Int63())
			data := workload.EdgesToRelation(bundle.RelTypes[e], edges)
			for _, f := range horn.FactsFromRelation(e, data) {
				full.Add(f)
			}
			args = append(args, eval.Resolved{Rel: data})
		}
		for _, q := range bundle.IDB {
			args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[q])})
		}
		pe := prolog.NewEngine(full)
		for _, goal := range bundle.IDB {
			total++
			setRes, err := en.Apply(horn.ConstructorName(goal), relation.New(bundle.RelTypes[goal]), args)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := pe.SolveTabled(prolog.NewAtom(goal, prolog.V(0), prolog.V(1)))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := horn.RelationFromAnswers(bundle.RelTypes[goal], answers)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.Equal(setRes) {
				t.Errorf("trial %d goal %s: tabled %d answers, constructor %d", trial, goal, rel.Len(), setRes.Len())
			}
		}
	}
	if total == 0 {
		t.Error("no goals generated")
	}
}

// randomDatalog returns a positive program over EDB predicates e1, e2 with
// nIDB binary IDB predicates, each a base rule plus one or two linear
// recursive rules over itself or an earlier IDB predicate.
func randomDatalog(rng *rand.Rand, nIDB int) *prolog.Program {
	prog := prolog.NewProgram()
	idb := make([]string, nIDB)
	for i := range idb {
		idb[i] = fmt.Sprintf("p%d", i+1)
	}
	edb := []string{"e1", "e2"}
	for i, p := range idb {
		prog.Add(prolog.Rule(
			prolog.NewAtom(p, prolog.V(0), prolog.V(1)),
			prolog.NewAtom(edb[rng.Intn(len(edb))], prolog.V(0), prolog.V(1))))
		for k := 0; k < 1+rng.Intn(2); k++ {
			q := p
			if i > 0 && rng.Intn(2) == 0 {
				q = idb[rng.Intn(i+1)]
			}
			prog.Add(prolog.Rule(
				prolog.NewAtom(p, prolog.V(0), prolog.V(2)),
				prolog.NewAtom(edb[rng.Intn(len(edb))], prolog.V(0), prolog.V(1)),
				prolog.NewAtom(q, prolog.V(1), prolog.V(2))))
		}
	}
	return prog
}

// TestE8 is Fig 3: the CAD module's augmented quant graph shows the
// recursive cycle through ahead and above, both constructors are recursive
// and in one component, and both pass the positivity analysis.
func TestE8(t *testing.T) {
	db := openCAD(t)
	out := db.QuantGraphASCII()
	for _, frag := range []string{"recursive cycles", "ahead", "above"} {
		if !strings.Contains(out, frag) {
			t.Errorf("quant graph missing %q:\n%s", frag, out)
		}
	}
	p := db.LastProgram
	for _, name := range []string{"ahead", "above"} {
		if !slices.Contains(p.Recursive, name) {
			t.Errorf("%s not recursive: %v", name, p.Recursive)
		}
		if rep, ok := p.Positivity[name]; !ok || !rep.Positive() {
			t.Errorf("positivity of %s: %v", name, rep)
		}
	}
	found := false
	for _, c := range p.Components {
		found = found || (slices.Contains(c, "ahead") && slices.Contains(c, "above"))
	}
	if !found {
		t.Errorf("ahead and above must share a component: %v", p.Components)
	}
}
