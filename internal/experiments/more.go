package experiments

// E1 (selectors, Fig 1), E3 (mutual recursion, section 3.1), E5 (the
// expressiveness lemma, section 3.4), and E8 (the augmented quant graph,
// Fig 3).

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	dbpl "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// CADModule is the full mutual-recursion module of section 3.1.
const CADModule = `
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

// ---------------------------------------------------------------------------
// E1: selector semantics (Fig 1, sections 2.2–2.3)
// ---------------------------------------------------------------------------

// openCAD opens an in-memory database with the CAD schema module executed.
func openCAD() (*dbpl.DB, error) {
	db, err := dbpl.Open()
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(CADModule); err != nil {
		return nil, err
	}
	return db, nil
}

// PrintE1 demonstrates that (a) assignment through a selected variable
// equals the paper's conditional assignment, (b) referential integrity is
// enforced, and (c) the key constraint is re-checked on assignment.
func PrintE1(w io.Writer) error {
	fmt.Fprintln(w, "E1: selector semantics — guarded assignment (Fig 1)")
	db, err := openCAD()
	if err != nil {
		return err
	}
	if _, err := db.Exec(`
MODULE data;
Objects := {<"vase">, <"table">, <"chair">};
END data.
`); err != nil {
		return err
	}

	// (a)+(b) Referential integrity via guarded assignment.
	_, errBad := db.Exec(`
MODULE t1;
Infront[refint] := {<"ghost","table">};
END t1.
`)
	fmt.Fprintf(w, "  refint rejects unknown object:           %v\n", errBad != nil)
	_, errOK := db.Exec(`
MODULE t2;
Infront[refint] := {<"table","chair">};
END t2.
`)
	fmt.Fprintf(w, "  refint accepts valid tuples:              %v\n", errOK == nil)

	// Guarded assignment atomicity: after the failed assignment, the old
	// value must be intact.
	rel, _ := db.Relation("Infront")
	fmt.Fprintf(w, "  failed assignment left value intact:      %v\n",
		rel.Len() == 1 && rel.Contains(dbpl.NewTuple(dbpl.Str("table"), dbpl.Str("chair"))))

	// (c) Key constraint: Objects is keyed on part.
	_, errKey := db.Exec(`
MODULE t3;
Objects := {<"vase">, <"vase">};
END t3.
`)
	fmt.Fprintf(w, "  duplicate key collapses to one tuple:     %v\n", errKey == nil)

	// Selection equivalence: Rel[hidden_by(c)] == {EACH r IN Rel: r.front=c}.
	sel, err := db.Query(`Infront[hidden_by("table")]`)
	if err != nil {
		return err
	}
	direct, err := db.Query(`{EACH r IN Infront: r.front = "table"}`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Rel[sel] equals explicit selection query: %v\n", sel.Equal(direct))
	return nil
}

// ---------------------------------------------------------------------------
// E3: mutual recursion at scale (section 3.1)
// ---------------------------------------------------------------------------

// E3Row is one measurement of the mutual-recursion experiment.
type E3Row struct {
	Lanes, LaneLen int
	Infront, Ontop int
	Ahead, Above   int
	Instances      int
	Rounds         int
	Time           time.Duration
}

// RunE3 evaluates the joint ahead/above fixpoint over generated CAD scenes.
func RunE3(sizes [][2]int) ([]E3Row, error) {
	db, err := openCAD()
	if err != nil {
		return nil, err
	}
	var out []E3Row
	for _, sz := range sizes {
		scene := workload.NewCADScene(sz[0], sz[1], 3, 1985)
		row := E3Row{Lanes: sz[0], LaneLen: sz[1],
			Infront: scene.Infront.Len(), Ontop: scene.Ontop.Len()}
		t0 := time.Now()
		ahead, err := db.Apply("ahead", scene.Infront, scene.Ontop)
		if err != nil {
			return nil, err
		}
		row.Time = time.Since(t0)
		row.Ahead = ahead.Len()
		st := db.LastStats()
		row.Instances = st.Instances
		row.Rounds = st.Rounds
		above, err := db.Apply("above", scene.Ontop, scene.Infront)
		if err != nil {
			return nil, err
		}
		row.Above = above.Len()
		out = append(out, row)
	}
	return out, nil
}

// PrintE3 runs and prints E3, including the paper's vase/table/chair check.
func PrintE3(w io.Writer) error {
	fmt.Fprintln(w, "E3: mutual recursion ahead/above over CAD scenes (section 3.1)")

	// The paper's worked example first.
	db, err := openCAD()
	if err != nil {
		return err
	}
	if _, err := db.Exec(`
MODULE data;
Objects := {<"vase">, <"table">, <"chair">};
Infront := {<"table","chair">};
Ontop   := {<"vase","table">};
END data.
`); err != nil {
		return err
	}
	above, err := db.Query(`Ontop{above(Infront)}`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  vase on table, table in front of chair => vase ahead of chair: %v\n",
		above.Contains(dbpl.NewTuple(dbpl.Str("vase"), dbpl.Str("chair"))))

	rows, err := RunE3([][2]int{{2, 16}, {4, 32}, {4, 64}, {8, 64}})
	if err != nil {
		return err
	}
	t := &table{header: []string{"lanes", "len", "|Infront|", "|Ontop|",
		"|ahead|", "|above|", "instances", "rounds", "time"}}
	for _, r := range rows {
		t.add(fmt.Sprint(r.Lanes), fmt.Sprint(r.LaneLen),
			fmt.Sprint(r.Infront), fmt.Sprint(r.Ontop),
			fmt.Sprint(r.Ahead), fmt.Sprint(r.Above),
			fmt.Sprint(r.Instances), fmt.Sprint(r.Rounds), ms(r.Time))
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// E5: the expressiveness lemma as a randomized harness (section 3.4)
// ---------------------------------------------------------------------------

// RunE5 generates random positive Datalog programs, runs them through both
// engines (tabled resolution vs the constructor translation evaluated
// set-orientedly), and counts agreements.
func RunE5(trials int, seed int64) (agree, total int, err error) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		prog := randomDatalog(rng, 1+rng.Intn(3))
		bundle, err := horn.ToConstructors(prog, schema.StringType())
		if err != nil {
			return agree, total, err
		}
		reg := core.NewRegistry()
		for _, p := range bundle.IDB {
			if _, err := reg.Register(bundle.Decls[p], bundle.RelTypes[p]); err != nil {
				return agree, total, err
			}
		}
		en := core.NewEngine(reg, eval.NewEnv())

		data := make(map[string]*relation.Relation)
		full := prolog.NewProgram(prog.Clauses()...)
		for _, e := range bundle.EDB {
			edges := workload.RandomGraph(4+rng.Intn(4), 4+rng.Intn(6), rng.Int63())
			data[e] = workload.EdgesToRelation(bundle.RelTypes[e], edges)
			for _, f := range horn.FactsFromRelation(e, data[e]) {
				full.Add(f)
			}
		}
		var args []eval.Resolved
		for _, e := range bundle.EDB {
			args = append(args, eval.Resolved{Rel: data[e]})
		}
		for _, q := range bundle.IDB {
			args = append(args, eval.Resolved{Rel: relation.New(bundle.RelTypes[q])})
		}
		pe := prolog.NewEngine(full)
		for _, goalPred := range bundle.IDB {
			total++
			seedRel := relation.New(bundle.RelTypes[goalPred])
			setRes, err := en.Apply(horn.ConstructorName(goalPred), seedRel, args)
			if err != nil {
				return agree, total, err
			}
			answers, err := pe.SolveTabled(prolog.NewAtom(goalPred, prolog.V(0), prolog.V(1)))
			if err != nil {
				return agree, total, err
			}
			rel, err := horn.RelationFromAnswers(bundle.RelTypes[goalPred], answers)
			if err != nil {
				return agree, total, err
			}
			if rel.Equal(setRes) {
				agree++
			}
		}
	}
	return agree, total, nil
}

func randomDatalog(rng *rand.Rand, nIDB int) *prolog.Program {
	prog := prolog.NewProgram()
	idb := make([]string, nIDB)
	for i := range idb {
		idb[i] = fmt.Sprintf("p%d", i+1)
	}
	edb := []string{"e1", "e2"}
	for i, p := range idb {
		e := edb[rng.Intn(len(edb))]
		prog.Add(prolog.Rule(
			prolog.NewAtom(p, prolog.V(0), prolog.V(1)),
			prolog.NewAtom(e, prolog.V(0), prolog.V(1))))
		for k := 0; k < 1+rng.Intn(2); k++ {
			q := p
			if i > 0 && rng.Intn(2) == 0 {
				q = idb[rng.Intn(i+1)]
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

// PrintE5 runs and prints E5, plus the termination contrast on cyclic data.
func PrintE5(w io.Writer) error {
	fmt.Fprintln(w, "E5: expressiveness lemma — constructors vs function-free PROLOG (section 3.4)")
	agree, total, err := RunE5(50, 1985)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  random positive Datalog programs: %d/%d goals agree between engines\n", agree, total)

	// Closed-world termination: pure SLD diverges on cyclic data, the
	// constructor fixpoint terminates.
	chk, err := Checked()
	if err != nil {
		return err
	}
	inT := chk.RelTypes["infrontrel"]
	cyc := workload.EdgesToRelation(inT, workload.Cycle(8))
	en, _, _, err := AheadEngine(core.SemiNaive)
	if err != nil {
		return err
	}
	res, err := en.Apply("ahead", cyc, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  closure of an 8-cycle via constructors: %d tuples (terminates)\n", res.Len())

	tr, err := horn.FromApplication(chk.Constructors, "ahead",
		horn.RelPred{Pred: "infront", Elem: inT.Element}, nil)
	if err != nil {
		return err
	}
	prog := prolog.NewProgram(tr.Rules...)
	for _, f := range horn.FactsFromRelation("infront", cyc) {
		prog.Add(f)
	}
	pe := prolog.NewEngine(prog)
	pe.MaxSteps = 200_000
	_, errSLD := pe.Solve(prolog.NewAtom(tr.GoalPred, prolog.V(0), prolog.V(1)))
	fmt.Fprintf(w, "  pure SLD on the same data: %v\n", errSLD)
	return nil
}

// ---------------------------------------------------------------------------
// E8: the augmented quant graph (Fig 3, section 4)
// ---------------------------------------------------------------------------

// PrintE8 compiles the CAD module and renders its augmented quant graph,
// component partition, and recursion analysis.
func PrintE8(w io.Writer) error {
	fmt.Fprintln(w, "E8: augmented quant graph for the section 3.1 constructors (Fig 3)")
	db, err := openCAD()
	if err != nil {
		return err
	}
	fmt.Fprint(w, db.QuantGraphASCII())
	p := db.LastProgram
	fmt.Fprintf(w, "  component partition (type-checking level): %v\n", p.Components)
	fmt.Fprintf(w, "  recursive constructors (fixpoint codegen): %v\n", p.Recursive)
	for name, rep := range p.Positivity {
		fmt.Fprintf(w, "  positivity of %-6s: %v (%d tracked occurrences)\n",
			name, rep.Positive(), len(rep.Occurrences))
	}
	return nil
}

// Used by E5/E7 helpers.
var _ = value.Str
