package dbpl_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	dbpl "repro"

	"repro/internal/workload"
)

const cadModule = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;

Infront := {<"vase","table">, <"table","chair">, <"chair","floor">};
END cad.
`

const bomModule = `
MODULE bom;
TYPE namet  = STRING;
TYPE bomrel = RELATION OF RECORD assembly, component: namet END;
TYPE wurel  = RELATION OF RECORD part, usedin: namet END;
VAR Contains: bomrel;

CONSTRUCTOR explode FOR Rel: bomrel (): bomrel;
BEGIN
  EACH r IN Rel: TRUE,
  <p.assembly, c.component> OF
    EACH p IN Rel, EACH c IN Rel{explode}: p.component = c.assembly
END explode;

CONSTRUCTOR invert FOR Rel: bomrel (): wurel;
BEGIN
  <r.component, r.assembly> OF EACH r IN Rel: TRUE
END invert;

SELECTOR of_assembly (Root: namet) FOR Rel: bomrel;
BEGIN EACH r IN Rel: r.assembly = Root END of_assembly;

SELECTOR uses_part (P: namet) FOR Rel: wurel;
BEGIN EACH r IN Rel: r.part = P END uses_part;
END bom.
`

const samegenModule = `
MODULE samegen;
TYPE person    = STRING;
TYPE parentrel = RELATION OF RECORD child, parent: person END;
TYPE sgrel     = RELATION OF RECORD left, right: person END;
VAR Parent: parentrel;

CONSTRUCTOR samegen FOR Rel: parentrel (): sgrel;
BEGIN
  <a.child, b.child> OF EACH a IN Rel, EACH b IN Rel: a.parent = b.parent,
  <a.child, b.child> OF
    EACH a IN Rel, EACH sg IN Rel{samegen}, EACH b IN Rel:
    a.parent = sg.left AND sg.right = b.parent
END samegen;

Parent := {<"alice","carol">, <"bob","carol">,
           <"carol","emma">, <"dave","emma">,
           <"frank","dave">};
END samegen.
`

func openWith(t testing.TB, module string, opts ...dbpl.Option) *dbpl.DB {
	t.Helper()
	db, err := dbpl.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(module); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainGolden pins the rendered text plan for the three plan shapes:
// an indexable selector on a base relation, a recursive constructor
// application restricted to the selector's bound head, and an equi-join set
// expression.
func TestExplainGolden(t *testing.T) {
	db := openWith(t, cadModule)
	ctx := context.Background()

	for _, tc := range []struct {
		query, want string
	}{
		{
			query: `Infront[hidden_by("table")]`,
			want: `query:   Infront[hidden_by("table")]  (range)
pass:    flatten   - no set expression
pass:    propagate - no selection over a constructor application
pass:    nest      - no set expression
quant:   base Infront
quant:   apply [hidden_by("table")]
path:    [hidden_by] over Infront: hash-partition(front)
`,
		},
		{
			query: `Infront{ahead}[hidden_by("table")]`,
			want: `query:   Infront{ahead}[hidden_by("table")]  (range)
pass:    flatten   - no set expression
pass:    propagate + restricted ahead to head="table" via ahead__bf
pass:    nest      - no set expression
plan:    Infront{ahead__bf("table")}[hidden_by("table")]
quant:   base Infront
quant:   apply {ahead__bf("table")}
quant:   apply [hidden_by("table")]
path:    [hidden_by] over Infront{ahead__bf("table")}: scan
magic:   ahead bound head="table" via 1 adorned constructor(s)
`,
		},
		{
			query: `{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`,
			want: `query:   {<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}  (set)
pass:    flatten   - no nested single-binding ranges
pass:    propagate - no selection over a constructor application
pass:    nest      - no single-variable conjuncts to move
quant:   branch 0: EACH f IN Infront
quant:   branch 0: EACH b IN Infront [probe front = f.back]
`,
		},
	} {
		p, err := db.Explain(ctx, tc.query)
		if err != nil {
			t.Fatalf("Explain(%s): %v", tc.query, err)
		}
		if got := p.Text(); got != tc.want {
			t.Errorf("Explain(%s) text:\n%s\nwant:\n%s", tc.query, got, tc.want)
		}
	}
}

// TestExplainWithoutOptimization pins the disabled-pipeline rendering.
func TestExplainWithoutOptimization(t *testing.T) {
	db := openWith(t, cadModule, dbpl.WithoutOptimization())
	p, err := db.Explain(context.Background(), `Infront[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	want := `query:   Infront[hidden_by("table")]  (range)
passes:  (optimization disabled)
quant:   base Infront
quant:   apply [hidden_by("table")]
path:    [hidden_by] over Infront: scan
`
	if got := p.Text(); got != want {
		t.Errorf("text:\n%s\nwant:\n%s", got, want)
	}
	if p.Optimized {
		t.Error("plan claims optimized under WithoutOptimization")
	}
}

// TestExplainJSON checks the structured form round-trips with the fields the
// acceptance criteria name: applied passes and chosen access paths.
func TestExplainJSON(t *testing.T) {
	db := openWith(t, cadModule)
	p, err := db.Explain(context.Background(), `Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded dbpl.Plan
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if decoded.Kind != "range" || !decoded.Optimized {
		t.Errorf("kind=%q optimized=%v", decoded.Kind, decoded.Optimized)
	}
	if len(decoded.Passes) != 3 {
		t.Fatalf("got %d passes, want 3", len(decoded.Passes))
	}
	if !decoded.Passes[1].Applied || decoded.Passes[1].Pass != "propagate" {
		t.Errorf("propagate pass not applied: %+v", decoded.Passes[1])
	}
	if m := decoded.Magic; m == nil || m.Constructor != "ahead" || m.BoundAttr != "head" || m.Const != `"table"` ||
		len(m.Adorned) != 1 || m.Adorned[0] != "ahead__bf" {
		t.Errorf("magic info: %+v", decoded.Magic)
	}
	// The selector applies to a derived (constructor) result: with no value
	// to look at, Explain shows the cold default, a scan.
	if len(decoded.AccessPaths) != 1 || decoded.AccessPaths[0].Kind != "scan" {
		t.Errorf("access paths: %+v", decoded.AccessPaths)
	}
	// Applied directly to the relation variable, the same selector is a
	// partition lookup.
	p2, err := db.Explain(context.Background(), `Infront[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	if aps := p2.AccessPaths; len(aps) != 1 || aps[0].Kind != "hash-partition" || aps[0].Attr != "front" {
		t.Errorf("base-relation access paths: %+v", p2.AccessPaths)
	}
}

// TestExplainAnalyze executes and checks the EXPLAIN ANALYZE counters.
func TestExplainAnalyze(t *testing.T) {
	db := openWith(t, cadModule)
	p, err := db.ExplainQuery(context.Background(), `Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Analyze
	if a == nil {
		t.Fatal("Analyze not filled by ExplainQuery")
	}
	if a.Rows != 2 {
		t.Errorf("rows=%d, want 2 (table ahead of chair and floor)", a.Rows)
	}
	if a.Mode == "" || a.Rounds == 0 {
		t.Errorf("fixpoint counters missing: %+v", a)
	}
	// The selector filters the magic-restricted (derived) relation, so it
	// scans — an index is only probed on a selector's direct relation-name
	// base.
	if a.Scans != 1 || a.PartitionLookups != 0 {
		t.Errorf("access-path counters: %+v", a)
	}

	// Parameter-bound execution through a prepared statement.
	stmt, err := db.Prepare(`Infront[hidden_by(Obj)]`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if got := stmt.Plan().Params; len(got) != 1 || got[0] != "Obj" {
		t.Fatalf("params: %v", got)
	}
	p2, err := stmt.ExplainQuery(context.Background(), "table")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Analyze.Rows != 1 || p2.Analyze.PartitionLookups != 1 {
		t.Errorf("analyze: %+v", p2.Analyze)
	}
}

// TestRestrictedPreparedPointQuery: one Prepare of a parameter-bound point
// query is restricted and serves every binding, and a restricted run leaves
// the materialized-view cache as it was — generated constructors are never
// materialized.
func TestRestrictedPreparedPointQuery(t *testing.T) {
	db := openWith(t, cadModule)
	ctx := context.Background()
	st, err := db.Prepare(`Infront{ahead}[hidden_by(Obj)]`)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Plan(); p.Magic == nil || p.Magic.Const != "Obj" || p.Final != `Infront{ahead__bf(Obj)}[hidden_by(Obj)]` {
		t.Fatalf("not restricted by the parameter:\n%s", p.Text())
	}
	before := db.Health().MatViews
	// Executions share the statement's registry: run them concurrently.
	var wg sync.WaitGroup
	for obj, want := range map[string]int{"vase": 3, "table": 2, "chair": 1, "floor": 0} {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, err := st.Query(ctx, obj)
				if err != nil {
					t.Error(err)
				} else if rel.Len() != want {
					t.Errorf("hidden_by(%s): %d tuples, want %d: %s", obj, rel.Len(), want, rel)
				}
			}()
		}
	}
	wg.Wait()
	if after := db.Health().MatViews; after.Entries != before.Entries || after.Misses != before.Misses {
		t.Errorf("restricted runs touched the view cache: %+v -> %+v", before, after)
	}
}

// TestExplainAnalyzeOperators pins the per-operator executor counters for an
// equi-join set expression: the 3-tuple outer scan, the hash join that
// matches 2 of them, and the project/dedup tail.
func TestExplainAnalyzeOperators(t *testing.T) {
	db := openWith(t, cadModule)
	p, err := db.ExplainQuery(context.Background(),
		`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []dbpl.OperatorStat{
		{Op: "scan(f)", RowsIn: 3, RowsOut: 3, Batches: 1, Workers: 1},
		{Op: "hash-join(b)", RowsIn: 3, RowsOut: 2, Batches: 1, Workers: 1},
		{Op: "project", RowsIn: 2, RowsOut: 2, Batches: 1, Workers: 1},
		{Op: "dedup", RowsIn: 2, RowsOut: 2, Workers: 1},
	}
	got := p.Analyze.Operators
	if len(got) != len(want) {
		t.Fatalf("got %d operators %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("operator %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if p.Analyze.Parallelism < 1 {
		t.Errorf("parallelism=%d, want >= 1", p.Analyze.Parallelism)
	}
	// The rendered plan carries the same counters.
	text := p.Text()
	for _, line := range []string{"op:      scan(f)", "op:      hash-join(b)", "op:      dedup"} {
		if !strings.Contains(text, line) {
			t.Errorf("plan text missing %q:\n%s", line, text)
		}
	}
}

// sceneModule is the 3-relation scene schema of the benchmark's join class.
const sceneModule = `
MODULE scene;
TYPE nm      = STRING;
TYPE partrel = RELATION OF RECORD name, kind: nm END;
TYPE onrel   = RELATION OF RECORD top, base: nm END;
TYPE matrel  = RELATION OF RECORD kind, material: nm END;
VAR Part: partrel;
VAR Ontop: onrel;
VAR Material: matrel;
END scene.
`

// TestExplainAnalyzeQuantifiersMatchOperators: EXPLAIN ANALYZE prints one
// plan, not two. On a join written in the worst syntactic order (Material is
// far more than 8x smaller than Ontop, so the executor drives the join from
// it), the quant: lines list the bindings in the order of the join operators
// below them, a [probe ...] annotation marks exactly the hash joins, and a
// plain Explain — no cardinalities — still shows the declared order.
func TestExplainAnalyzeQuantifiersMatchOperators(t *testing.T) {
	db := openWith(t, sceneModule)
	var part, ontop, material []dbpl.Tuple
	pair := func(a, b string) dbpl.Tuple { return dbpl.NewTuple(dbpl.Str(a), dbpl.Str(b)) }
	for i := 0; i < 64; i++ {
		part = append(part, pair(fmt.Sprintf("p%02d", i), fmt.Sprintf("k%d", i%4)))
		if i > 0 {
			ontop = append(ontop, pair(fmt.Sprintf("p%02d", i), fmt.Sprintf("p%02d", i/2)))
		}
	}
	for k := 0; k < 4; k++ {
		material = append(material, pair(fmt.Sprintf("k%d", k), fmt.Sprintf("m%d", k%2)))
	}
	for name, tuples := range map[string][]dbpl.Tuple{"Part": part, "Ontop": ontop, "Material": material} {
		if err := db.Insert(name, tuples...); err != nil {
			t.Fatal(err)
		}
	}
	const query = `{<o.top, o.base, m.material> OF EACH o IN Ontop, EACH p IN Part, EACH m IN Material: p.kind = m.kind AND o.top = p.name AND m.material = "m1"}`
	ctx := context.Background()

	// quantVars extracts, per quant: line, the bound variable and whether the
	// line carries a probe annotation.
	type quant struct {
		v     string
		probe bool
	}
	quantVars := func(p *dbpl.Plan) []quant {
		var out []quant
		for _, q := range p.Quantifiers {
			rest, ok := strings.CutPrefix(q, "branch 0: EACH ")
			if !ok {
				t.Fatalf("unexpected quant line %q", q)
			}
			v, _, _ := strings.Cut(rest, " ")
			out = append(out, quant{v, strings.Contains(q, " [probe ")})
		}
		return out
	}

	static, err := db.Explain(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if got := quantVars(static); len(got) != 3 || got[0].v != "o" || got[1].v != "p" || got[2].v != "m" {
		t.Errorf("Explain without cardinalities left the declared order: %+v\n%s", got, static.Text())
	}

	p, err := db.ExplainQuery(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if p.Analyze.Rows != 32 {
		t.Errorf("rows=%d, want 32 (every odd-numbered part rests on another)", p.Analyze.Rows)
	}
	quants := quantVars(p)
	own := map[string]bool{"o": true, "p": true, "m": true}
	var ops []string
	for _, op := range p.Analyze.Operators {
		kind, rest, ok := strings.Cut(op.Op, "(")
		if v := strings.TrimSuffix(rest, ")"); ok && own[v] && kind != "filter" {
			ops = append(ops, op.Op)
		}
	}
	if len(quants) != 3 || len(ops) != 3 {
		t.Fatalf("got %d quant lines and %d join operators, want 3 each:\n%s", len(quants), len(ops), p.Text())
	}
	if quants[0].v != "m" {
		t.Errorf("execution did not drive the join from Material:\n%s", p.Text())
	}
	for i, q := range quants {
		want := "loop-join(" + q.v + ")"
		switch {
		case i == 0:
			want = "scan(" + q.v + ")"
		case q.probe:
			want = "hash-join(" + q.v + ")"
		}
		if ops[i] != want {
			t.Errorf("quant line %d binds %s (probe=%v) but operator %d is %s, want %s:\n%s",
				i, q.v, q.probe, i, ops[i], want, p.Text())
		}
	}
}

// TestPlanKind: every set-expression shape prepares through the one statement
// form, and Kind names it truthfully — "set" for a bare braced set expression,
// "range" once anything is applied to it or the head is a relation variable.
func TestPlanKind(t *testing.T) {
	db := openWith(t, cadModule)
	for _, tc := range []struct{ src, want string }{
		{`{<"a","b">, <"b","c">}`, "set"},
		{`{EACH r IN Infront: TRUE}`, "set"},
		{`{EACH r IN Infront: TRUE, <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front}`, "set"},
		{`{EACH r IN {EACH s IN Infront: s.front = "table"}: TRUE}`, "set"},
		{`{EACH r IN Infront: TRUE}[hidden_by("table")]`, "range"},
		{`Infront{ahead}`, "range"},
		{`Infront`, "range"},
	} {
		stmt, err := db.Prepare(tc.src)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.src, err)
		}
		if got := stmt.Plan().Kind; got != tc.want {
			t.Errorf("Plan(%s).Kind = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// corpusCase is one schema of the accept corpus: the modules that build it,
// the statement modules a transaction runs over it, and the queries — with
// the arguments their parameters bind — it answers.
type corpusCase struct {
	name    string
	modules []string
	setup   func(t testing.TB, db *dbpl.DB)
	txs     []string
	queries []corpusQuery
}

// corpusQuery is one query text and the arguments its parameters bind;
// restricted marks a query the propagate pass must restrict (Plan().Magic
// non-nil whenever the optimizer runs).
type corpusQuery struct {
	src        string
	args       []any
	restricted bool
}

func cq(src string, args ...any) corpusQuery { return corpusQuery{src: src, args: args} }

// rq is cq for a query whose recursive constructor application is restricted.
func rq(src string, args ...any) corpusQuery {
	return corpusQuery{src: src, args: args, restricted: true}
}

// restrictModule extends cadModule with the recursion shapes and bindings the
// propagate pass restricts: a selector binding the second attribute, a
// two-argument selector, a left-linear closure, a non-linear closure with a
// literal branch, and a closure over a STRING x INTEGER relation.
const restrictModule = `
MODULE restrict;
TYPE lvlrel = RELATION OF RECORD name: parttype; n: INTEGER END;
VAR Levels: lvlrel;

SELECTOR hides (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.back = Obj END hides;

SELECTOR between (X: parttype; Y: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = X AND r.back = Y END between;

SELECTOR at_level (N: INTEGER) FOR Rel: lvlrel;
BEGIN EACH r IN Rel: r.n = N END at_level;

CONSTRUCTOR lahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <a.head, r.back> OF EACH a IN Rel{lahead}, EACH r IN Rel: a.tail = r.front
END lahead;

CONSTRUCTOR tc FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <"floor", "cellar">,
  <a.head, b.tail> OF EACH a IN Rel{tc}, EACH b IN Rel{tc}: a.tail = b.head
END tc;

CONSTRUCTOR climb FOR Rel: lvlrel (): lvlrel;
BEGIN
  EACH r IN Rel: TRUE,
  <c.name, r.n> OF EACH c IN Rel{climb}, EACH r IN Rel: r.n = c.n + 1
END climb;

Levels := {<"a", 1>, <"b", 2>, <"c", 3>, <"d", 5>};
END restrict.
`

// acceptCorpus is the well-typed programs the repository runs: the examples'
// modules and queries, the root tests' and the four benchmark workloads'
// (their texts, copied). The static check must accept every one of them, and
// they seed FuzzCheckedQueryDoesNotGoWrong.
func acceptCorpus() []corpusCase {
	bom := workload.NewBOM(6, 3, 42)
	return []corpusCase{
		{
			name:    "cad",
			modules: []string{cadModule},
			queries: []corpusQuery{
				cq(`Infront`),
				cq(`Infront{ahead}`),
				cq(`Infront{ahead}[hidden_by("table")]`),
				cq(`Infront{ahead}[hidden_by("vase")]`),
				cq(`Infront{ahead}[hidden_by(Obj)]`, "table"),
				cq(`Infront[hidden_by(Obj)]{ahead}`, "table"),
				cq(`Infront[hidden_by("table")]`),
				cq(`Infront{ahead}{ahead}`),
				cq(`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`),
				cq(`{EACH v IN {EACH r IN Infront: r.front = "table"}: TRUE}`),
				cq(`{EACH r IN Infront: TRUE, <f.front, b.back> OF EACH f, b IN Infront: f.back = b.front}`),
				cq(`{EACH r IN Infront: TRUE}[hidden_by("table")]`),
				cq(`{<"a","b">, <"b","c">}`),
				cq(`{<r.front, Tag> OF EACH r IN Infront: r.back # Tag}`, "floor"),
			},
		},
		{
			name: "cad-mutual",
			modules: []string{`
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

Objects := {<"vase">, <"table">, <"chair">, <"door">, <"lamp">};
Infront[refint] := {<"table","chair">, <"chair","door">};
Ontop          := {<"vase","table">, <"lamp","vase">};
END cad.
`},
			queries: []corpusQuery{
				cq(`Infront{ahead(Ontop)}`),
				cq(`Ontop{above(Infront)}`),
				cq(`Infront[refint]`),
			},
		},
		{
			name:    "bom",
			modules: []string{bomModule},
			setup: func(t testing.TB, db *dbpl.DB) {
				if err := db.Assign("Contains", bom.Contains); err != nil {
					t.Fatal(err)
				}
			},
			queries: []corpusQuery{
				cq(`Contains{explode}`),
				cq(fmt.Sprintf("Contains{explode}[of_assembly(%q)]", bom.Root)),
				cq(`Contains{explode}[of_assembly(Root)]`, bom.Root),
				cq(`Contains{invert}`),
				cq(fmt.Sprintf("{EACH v IN Contains{invert}: v.part = %q}", bom.Root)),
				cq(fmt.Sprintf("Contains{invert}[uses_part(%q)]", bom.Root)),
			},
		},
		{
			name:    "samegen",
			modules: []string{samegenModule},
			queries: []corpusQuery{
				cq(`Parent{samegen}`),
				cq(`{EACH sg IN Parent{samegen}: sg.left = "alice"}`),
			},
		},
		{
			// bench/closure_scan.go and live_maintain.go: cadSchema, sceneSchema,
			// closureQuery, pointQuery, joinQuery.
			name: "bench-closure",
			modules: []string{`
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END cad.
`, `
MODULE scene;
TYPE nm      = STRING;
TYPE partrel = RELATION OF RECORD name, kind: nm END;
TYPE onrel   = RELATION OF RECORD top, base: nm END;
TYPE matrel  = RELATION OF RECORD kind, material: nm END;
VAR Part: partrel;
VAR Ontop: onrel;
VAR Material: matrel;
END scene.
`, `
MODULE fill;
Infront  := {<"n0","n1">, <"n1","n2">, <"n0","n2">, <"n2","n3">};
Part     := {<"n0","leg">, <"n1","top">, <"n2","leg">};
Ontop    := {<"n0","n1">, <"n2","n3">};
Material := {<"leg","oak">, <"top","glass">};
END fill.
`},
			queries: []corpusQuery{
				cq(`Infront{ahead}`),
				cq(`Infront{ahead}[hidden_by("n1")]`),
				cq(`{<o.top, o.base, m.material> OF EACH o IN Ontop, EACH p IN Part, EACH m IN Material: p.kind = m.kind AND o.top = p.name AND m.material = "oak"}`),
			},
		},
		{
			// bench/served_oltp.go and paged_cold.go: stockSchema, stockAtQuery,
			// movesModule.
			name: "bench-stock",
			modules: []string{`
MODULE wh;
TYPE skurel = RELATION OF RECORD item, loc: STRING END;
VAR Stock: skurel;
VAR Extra: skurel;
VAR Archive: skurel;
VAR Moves_0: skurel;
VAR Moves_1: skurel;

SELECTOR at (Where: STRING) FOR Rel: skurel;
BEGIN EACH r IN Rel: r.loc = Where END at;
END wh.
`, `
MODULE fill;
Stock := {<"sku-1","dock-1">, <"sku-2","dock-1">, <"sku-3","dock-2">};
END fill.
`},
			txs: []string{"MODULE mv;\nMoves_1 := {<\"sku-1\", \"dock-2\">, <\"sku-9\", \"dock-1\">};\nEND mv.\n"},
			queries: []corpusQuery{
				cq(`Stock[at(Where)]`, "dock-1"),
				cq(`Moves_1[at(Where)]`, "dock-1"),
				cq(`Moves_1`),
			},
		},
		{
			// Bound recursive queries the propagate pass restricts: every one
			// must agree with the unoptimized closure-then-filter.
			name:    "cad-restrict",
			modules: []string{cadModule, restrictModule},
			queries: []corpusQuery{
				rq(`Infront{ahead}[hides("floor")]`),
				rq(`Infront{ahead}[hides("vase")]`),
				rq(`Infront{ahead}[hides(Obj)]`, "chair"),
				rq(`Infront{ahead}[hidden_by(Obj)]`, "vase"),
				rq(`Infront{ahead}[between("vase", "floor")]`),
				rq(`Infront{ahead}[between(X, Y)]`, "table", "chair"),
				rq(`{EACH r IN Infront{ahead}: r.head = "table"}`),
				rq(`{EACH r IN Infront{ahead}: r.tail = Obj}`, "floor"),
				rq(`{<r.head> OF EACH r IN Infront{ahead}: r.tail = "floor" AND r.head # "vase"}`),
				rq(`Infront{lahead}[hidden_by("vase")]`),
				rq(`Infront{lahead}[hides("floor")]`),
				rq(`Infront{tc}[hidden_by("table")]`),
				rq(`Infront{tc}[hides("cellar")]`),
				rq(`{EACH x IN Levels{climb}: x.name = "a"}`),
				rq(`Levels{climb}[at_level(3)]`),
				rq(`{EACH x IN Levels{climb}: x.name = Who AND x.n = N}`, "b", 3),
				cq(`Infront{ahead}[hidden_by("table")][hides("floor")]`),
			},
		},
	}
}

// TestOptimizedEquivalence runs the accept corpus under the default pipeline
// and under WithoutOptimization, on both storage engines, and requires every
// text to pass the static check and every query to return the relation, under
// the column names, the unoptimized memory engine returns — the pass pipeline,
// the access paths and the storage engine must be pure implementation choices.
func TestOptimizedEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range acceptCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			open := func(opts ...dbpl.Option) *dbpl.DB {
				db, err := dbpl.Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				for _, m := range tc.modules {
					if _, err := db.Exec(m); err != nil {
						t.Fatalf("module rejected: %v\n%s", err, m)
					}
				}
				if tc.setup != nil {
					tc.setup(t, db)
				}
				tx, err := db.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range tc.txs {
					if _, err := tx.Exec(ctx, m); err != nil {
						t.Fatalf("transaction module rejected: %v\n%s", err, m)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				return db
			}
			paged := func() []dbpl.Option {
				return []dbpl.Option{dbpl.WithPath(t.TempDir()), dbpl.WithBufferPoolPages(4)}
			}
			reference := open(dbpl.WithoutOptimization())
			others := map[string]*dbpl.DB{
				"optimized":         open(),
				"paged":             open(paged()...),
				"paged unoptimized": open(append(paged(), dbpl.WithoutOptimization())...),
			}
			for _, q := range tc.queries {
				run := func(name string, db *dbpl.DB) *dbpl.Rows {
					st, err := db.Prepare(q.src)
					if err != nil {
						t.Fatalf("Prepare(%s): %v", q.src, err)
					}
					if plan := st.Plan(); q.restricted && plan.Optimized && plan.Magic == nil {
						t.Errorf("%s, %s: not restricted:\n%s", q.src, name, plan.Text())
					}
					rows, err := st.QueryRows(ctx, q.args...)
					if err != nil {
						t.Fatalf("%s: %v", q.src, err)
					}
					return rows
				}
				want := run("reference", reference)
				for name, db := range others {
					got := run(name, db)
					if !got.Relation().Equal(want.Relation()) {
						t.Errorf("%s, %s: %d tuples, reference %d", q.src, name, got.Len(), want.Len())
					}
					if g, w := fmt.Sprint(got.Columns()), fmt.Sprint(want.Columns()); g != w {
						t.Errorf("%s, %s: columns %s, reference %s", q.src, name, g, w)
					}
					got.Close()
				}
				want.Close()
			}
		})
	}
}

// TestRestrictedPlanComputesFewerTuples is section 4's bound-head query on a
// 64-edge chain, bound near its end: the propagate pass restricts ahead to
// the bound head, so the default pipeline derives fewer tuples than the full
// closure WithoutOptimization filters, and returns the same 8 answers.
func TestRestrictedPlanComputesFewerTuples(t *testing.T) {
	var answers [2]*dbpl.Relation
	var computed [2]int
	for i, opt := range []dbpl.Option{dbpl.WithoutOptimization(), dbpl.WithoutMaterialization()} {
		db := openWith(t, cadModule, opt)
		defer db.Close()
		assignEdges(t, db, workload.Chain(64))
		st, err := db.Prepare(`Infront{ahead}[hidden_by(Obj)]`)
		if err != nil {
			t.Fatal(err)
		}
		if restricted := st.Plan().Magic != nil; restricted != (i == 1) {
			t.Fatalf("configuration %d: restricted=%v:\n%s", i, restricted, st.Plan().Text())
		}
		if answers[i], err = st.Query(context.Background(), workload.NodeName(56)); err != nil {
			t.Fatal(err)
		}
		computed[i] = db.LastStats().Tuples
	}
	if answers[0].Len() != 8 || !answers[1].Equal(answers[0]) {
		t.Errorf("restricted answer %d tuples, filtered closure %d, want 8", answers[1].Len(), answers[0].Len())
	}
	if computed[1] >= computed[0] {
		t.Errorf("restricted plan computed %d tuples, full closure %d", computed[1], computed[0])
	}
}

// TestPushdownPass checks that a selection over a non-recursive constructor
// is propagated into the constructor body (section 4 cases 1-3) and still
// returns the right answer.
func TestPushdownPass(t *testing.T) {
	db := openWith(t, bomModule)
	if err := db.Insert("Contains",
		dbpl.NewTuple(dbpl.Str("car"), dbpl.Str("wheel")),
		dbpl.NewTuple(dbpl.Str("wheel"), dbpl.Str("bolt")),
	); err != nil {
		t.Fatal(err)
	}
	q := `{EACH v IN Contains{invert}: v.part = "bolt"}`
	p, err := db.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var pushed bool
	for _, tr := range p.Passes {
		if tr.Pass == "propagate" && tr.Applied && strings.Contains(tr.Detail, "pushed selection") {
			pushed = true
		}
	}
	if !pushed {
		t.Fatalf("pushdown did not apply:\n%s", p.Text())
	}
	if !strings.Contains(p.Final, "Contains") {
		t.Errorf("final form lost the base relation: %s", p.Final)
	}
	rel, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := dbpl.NewTuple(dbpl.Str("bolt"), dbpl.Str("wheel"))
	if rel.Len() != 1 || !rel.Contains(want) {
		t.Errorf("pushdown result %s, want {%s}", rel, want)
	}
}

// TestPlanCacheInvalidationAfterDDL checks that compiled plans are dropped
// when a module changes the declaration state, and that re-preparation sees
// the new declarations.
func TestPlanCacheInvalidationAfterDDL(t *testing.T) {
	db := openWith(t, cadModule)
	if _, err := db.Query(`Infront[hidden_by("table")]`); err != nil {
		t.Fatal(err)
	}
	if n := db.PlanCacheLen(); n != 1 {
		t.Fatalf("plan cache has %d entries, want 1", n)
	}
	// DDL: a new selector declaration must clear the cache.
	if _, err := db.Exec(`
MODULE ddl;
SELECTOR behind (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.back = Obj END behind;
END ddl.
`); err != nil {
		t.Fatal(err)
	}
	if n := db.PlanCacheLen(); n != 0 {
		t.Fatalf("plan cache has %d entries after DDL, want 0", n)
	}
	// The new declaration resolves, and its plan lands in the cache.
	p, err := db.Explain(context.Background(), `Infront[behind("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AccessPaths) != 1 || p.AccessPaths[0].Kind != "hash-partition" || p.AccessPaths[0].Attr != "back" {
		t.Errorf("access path for new selector: %+v", p.AccessPaths)
	}
	if n := db.PlanCacheLen(); n != 1 {
		t.Fatalf("plan cache has %d entries, want 1", n)
	}
	// Declare also invalidates (the name could have been classified as a
	// scalar parameter).
	if err := db.Declare("Other", mustVarType(t, db, "Infront")); err != nil {
		t.Fatal(err)
	}
	if n := db.PlanCacheLen(); n != 0 {
		t.Fatalf("plan cache has %d entries after Declare, want 0", n)
	}
}

func mustVarType(t *testing.T, db *dbpl.DB, name string) dbpl.RelationType {
	t.Helper()
	rt, ok := db.StoreSnapshot().Type(name)
	if !ok {
		t.Fatalf("relation variable %q not declared", name)
	}
	return rt
}

// TestRewriteThatDoesNotTypeIsDropped: the pipeline's output is type-checked
// like its input. Pushdown inlines a constructor's body over the actual base;
// when that base names its attributes differently from the constructor's
// For-type, the inlined body no longer types — the rewrite is dropped with a
// trace, and the query as written runs (reading the base through the
// For-type), under both configurations alike.
func TestRewriteThatDoesNotTypeIsDropped(t *testing.T) {
	const more = `
MODULE more;
TYPE pairrel = RELATION OF RECORD a, b: namet END;
VAR Pairs: pairrel;
Pairs := {<"car","wheel">, <"wheel","bolt">};
END more.`
	q := `{EACH v IN Pairs{invert}: v.part = "bolt"}`
	var results []*dbpl.Relation
	for _, opts := range [][]dbpl.Option{nil, {dbpl.WithoutOptimization()}} {
		db := openWith(t, bomModule, opts...)
		if _, err := db.Exec(more); err != nil {
			t.Fatal(err)
		}
		p, err := db.Explain(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if opts == nil {
			last := p.Passes[len(p.Passes)-1]
			if last.Pass != "typecheck" || !strings.Contains(last.Detail, `no attribute "component"`) || p.Final != q {
				t.Errorf("ill-typed rewrite was not dropped:\n%s", p.Text())
			}
		}
		rel, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rel)
	}
	want := dbpl.NewTuple(dbpl.Str("bolt"), dbpl.Str("wheel"))
	if !results[0].Equal(results[1]) || results[0].Len() != 1 || !results[0].Contains(want) {
		t.Errorf("optimized %s, unoptimized %s, want {%s}", results[0], results[1], want)
	}
}
