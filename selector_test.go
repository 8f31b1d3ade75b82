package dbpl_test

// A selector application is the set expression of its declaration (section
// 2.3) evaluated by the one branch planner and pipeline: these tests pin that
// R[sel(a)] and the hand-written {EACH r IN R: body} agree tuple for tuple in
// every configuration, that the access path EXPLAIN ANALYZE shows is the one
// the execution took, and that a point read over a materialized view probes
// the index the view carries.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	dbpl "repro"
)

const selectorModule = `
MODULE sel;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
TYPE objrel     = RELATION OF RECORD part: parttype END;
VAR Infront: infrontrel;
VAR Objects: objrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

SELECTOR hides_other (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.back # "n7" AND r.front = Obj END hides_other;

SELECTOR loops FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = r.back END loops;

SELECTOR fronted_by (Objs: objrel) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: SOME o IN Objs (r.front = o.part) END fronted_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;

CONSTRUCTOR from_sel FOR Rel: infrontrel (Start: parttype): aheadrel;
BEGIN
  EACH r IN Rel[hidden_by(Start)]: TRUE,
  <f.head, b.back> OF EACH f IN Rel{from_sel(Start)}, EACH b IN Rel: f.tail = b.front
END from_sel;

CONSTRUCTOR from_set FOR Rel: infrontrel (Start: parttype): aheadrel;
BEGIN
  EACH r IN {EACH s IN Rel: s.front = Start}: TRUE,
  <f.head, b.back> OF EACH f IN Rel{from_set(Start)}, EACH b IN Rel: f.tail = b.front
END from_set;
END sel.
`

// selectorPairs lists each selector application with the set expression its
// declaration abbreviates.
var selectorPairs = []struct{ name, applied, written string }{
	{"indexable equality",
		`Infront[hidden_by("n3")]`,
		`{EACH r IN Infront: r.front = "n3"}`},
	{"equality plus residual conjunct",
		`Infront[hides_other("n3")]`,
		`{EACH r IN Infront: r.back # "n7" AND r.front = "n3"}`},
	{"non-indexable body",
		`Infront[loops]`,
		`{EACH r IN Infront: r.front = r.back}`},
	{"relation-valued parameter",
		`Infront[fronted_by(Objects)]`,
		`{EACH r IN Infront: SOME o IN Objects (r.front = o.part)}`},
	{"positionally re-labelled base",
		`Infront{ahead}[hidden_by("n3")]`,
		`{EACH r IN Infront{ahead}: r.head = "n3"}`},
	{"selector inside a constructor body",
		`Infront{from_sel("n3")}`,
		`Infront{from_set("n3")}`},
	{"selector over a selector's result",
		`Infront[hidden_by("n3")][hides_other("n3")]`,
		`{EACH r IN {EACH s IN Infront: s.front = "n3"}: r.back # "n7" AND r.front = "n3"}`},
}

// seedSelectorDB loads a 40-node graph: a chain with shortcuts, a few
// self-loops, and Objects naming every fourth node.
func seedSelectorDB(t *testing.T, db *dbpl.DB) {
	t.Helper()
	if _, err := db.Exec(selectorModule); err != nil {
		t.Fatal(err)
	}
	node := func(i int) dbpl.Value { return dbpl.Str(fmt.Sprintf("n%d", i)) }
	var edges, objs []dbpl.Tuple
	for i := 0; i < 40; i++ {
		edges = append(edges, dbpl.NewTuple(node(i), node(i+1)))
		if i%3 == 0 {
			edges = append(edges, dbpl.NewTuple(node(i), node(i+7)))
		}
		if i%10 == 3 {
			edges = append(edges, dbpl.NewTuple(node(i), node(i)))
		}
		if i%4 == 0 {
			objs = append(objs, dbpl.NewTuple(node(i)))
		}
	}
	if err := db.Insert("Infront", edges...); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Objects", objs...); err != nil {
		t.Fatal(err)
	}
}

// selectorConfigs is engines x serial/parallel x optimized/unoptimized.
func selectorConfigs(t *testing.T, each func(t *testing.T, db *dbpl.DB)) {
	for _, engine := range []string{"memory", "paged"} {
		for _, par := range []struct {
			name string
			opts []dbpl.Option
		}{{"serial", []dbpl.Option{dbpl.WithParallelism(1)}}, {"parallel", parallelOpts(4)}} {
			for _, opt := range []struct {
				name string
				opts []dbpl.Option
			}{{"optimized", nil}, {"unoptimized", []dbpl.Option{dbpl.WithoutOptimization()}}} {
				t.Run(engine+"/"+par.name+"/"+opt.name, func(t *testing.T) {
					opts := append(append([]dbpl.Option{}, par.opts...), opt.opts...)
					if engine == "paged" {
						opts = append(opts, dbpl.WithPath(t.TempDir()), dbpl.WithBufferPoolPages(4))
					}
					db, err := dbpl.Open(opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					seedSelectorDB(t, db)
					each(t, db)
				})
			}
		}
	}
}

func TestSelectorIsItsSetExpression(t *testing.T) {
	ctx := context.Background()
	selectorConfigs(t, func(t *testing.T, db *dbpl.DB) {
		agree := func(when string, query func(string) (*dbpl.Relation, error)) {
			t.Helper()
			for _, p := range selectorPairs {
				got, err := query(p.applied)
				if err != nil {
					t.Fatalf("%s, %s: %s: %v", when, p.name, p.applied, err)
				}
				want, err := query(p.written)
				if err != nil {
					t.Fatalf("%s, %s: %s: %v", when, p.name, p.written, err)
				}
				if want.Len() == 0 || !got.Equal(want) {
					t.Errorf("%s, %s: %s has %d tuples, %s has %d", when, p.name,
						p.applied, got.Len(), p.written, want.Len())
				}
			}
		}
		agree("published state", db.Query)
		// A second run reads through the indexes the first one memoized.
		agree("published state again", db.Query)

		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback() //nolint:errcheck // read-only from here
		if err := tx.Insert("Infront",
			dbpl.NewTuple(dbpl.Str("n3"), dbpl.Str("tx1")),
			dbpl.NewTuple(dbpl.Str("tx2"), dbpl.Str("tx2"))); err != nil {
			t.Fatal(err)
		}
		inTx := func(src string) (*dbpl.Relation, error) { return tx.Query(ctx, src) }
		agree("inside a Tx after Tx.Insert", inTx)
		got, err := inTx(`Infront[hidden_by("n3")]`)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Contains(dbpl.NewTuple(dbpl.Str("n3"), dbpl.Str("tx1"))) {
			t.Errorf("selector inside the Tx does not see the Tx's insert: %s", got)
		}
	})
}

// TestAccessPathDecisionIsThePlan: the access path EXPLAIN ANALYZE shows for
// a selector application is the one executing it took — hash-partition in its
// AccessPaths iff it counts that application as a partition lookup — over a
// relation name and over a maintained view alike, and a selector's operators
// are labelled by the selector, never by its body variable.
func TestAccessPathDecisionIsThePlan(t *testing.T) {
	ctx := context.Background()
	t.Run("paged engine under forced eviction", accessPathUnderForcedEviction)
	selectorConfigs(t, func(t *testing.T, db *dbpl.DB) {
		for _, p := range selectorPairs {
			ran, err := db.ExplainQuery(ctx, p.applied)
			if err != nil {
				t.Fatal(err)
			}
			hashed := 0
			for _, ap := range ran.AccessPaths {
				if ap.Kind == "hash-partition" {
					hashed++
				}
			}
			// Only from_sel applies a selector outside the query text, in its body.
			inBody := 0
			if p.applied == `Infront{from_sel("n3")}` {
				inBody = 1
			}
			a, paths := ran.Analyze, len(ran.AccessPaths)
			if a.PartitionLookups+a.Scans != paths+inBody || a.PartitionLookups < hashed || a.PartitionLookups > hashed+inBody {
				t.Errorf("%s: plan shows %d hash-partition of %d access paths, execution ran partition-lookups=%d scans=%d\n%s",
					p.applied, hashed, paths, a.PartitionLookups, a.Scans, ran.Text())
			}
		}

		// A selector over a maintained view probes the index maintenance left
		// on it; Prepare, having no value to look at, shows the cold scan.
		const point = `Infront{ahead}[hidden_by("n3")]`
		growAndMaintain(t, db, "n40", "x1")
		ran, err := db.ExplainQuery(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		want, lookups := `path:    [hidden_by] over Infront{ahead}: hash-partition(front)`, 1
		if !ran.Optimized {
			want, lookups = `path:    [hidden_by] over Infront{ahead}: scan`, 0
		}
		if a := ran.Analyze; !containsLine(ran.Text(), want) || a.PartitionLookups != lookups || a.Scans != 1-lookups {
			t.Errorf("selector over a maintained view: want %q, partition-lookups=%d scans=%d\n%s",
				want, lookups, 1-lookups, ran.Text())
		}
		if cold, err := db.Explain(ctx, point); err != nil || cold.AccessPaths[0].Kind != "scan" {
			t.Errorf("Explain of %s: %+v, %v; want the cold scan", point, cold.AccessPaths, err)
		}

		// A branch reusing the selector's body variable keeps its own counters.
		ran, err = db.ExplainQuery(ctx, `{EACH r IN Infront[hidden_by("n3")]: r.back # "n4"}`)
		if err != nil {
			t.Fatal(err)
		}
		ops := make(map[string]dbpl.OperatorStat)
		for _, op := range ran.Analyze.Operators {
			ops[op.Op] = op
		}
		// The branch scans the selector's 3-tuple result (2 once the nest pass
		// has moved its conjunct inward), never Infront's 58 tuples.
		if sel, br := ops["project[hidden_by]"], ops["scan(r)"]; sel.RowsOut != 3 || br.RowsIn < 2 || br.RowsIn > 3 {
			t.Errorf("selector and branch operators not told apart:\n%s", ran.Text())
		}
	})
}

// accessPathUnderForcedEviction: on the paged engine with two relations over
// the residency budget, which of them is resident when a statement runs
// depends on the engine's map order; the access path does not. Ten
// consecutive executions all report the lookup the plan shows.
func accessPathUnderForcedEviction(t *testing.T) {
	ctx := context.Background()
	db, err := dbpl.Open(dbpl.WithPath(t.TempDir()), dbpl.WithBufferPoolPages(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, module := range []string{selectorModule, `MODULE more; VAR Extra: infrontrel; END more.`} {
		if _, err := db.Exec(module); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"Infront", "Extra"} {
		tuples := make([]dbpl.Tuple, 4000)
		for i := range tuples {
			tuples[i] = dbpl.NewTuple(dbpl.Str(fmt.Sprintf("n%d", i%50)), dbpl.Str(fmt.Sprintf("%s-%04d", name, i)))
		}
		if err := db.Insert(name, tuples...); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.Prepare(`Infront[hidden_by(Obj)]`)
	if err != nil {
		t.Fatal(err)
	}
	if aps := stmt.Plan().AccessPaths; len(aps) != 1 || aps[0].Kind != "hash-partition" {
		t.Fatalf("access paths: %+v", aps)
	}
	evictions := db.Health().Storage.Evictions
	for run := 0; run < 10; run++ {
		ran, err := stmt.ExplainQuery(ctx, "n7")
		if err != nil {
			t.Fatal(err)
		}
		if a := ran.Analyze; a.Rows != 80 || a.PartitionLookups != 1 || a.Scans != 0 {
			t.Fatalf("run %d: rows=%d partition-lookups=%d scans=%d, want 80, 1, 0", run, a.Rows, a.PartitionLookups, a.Scans)
		}
	}
	if db.Health().Storage.Evictions == evictions {
		t.Error("the executions forced no eviction: the relations fit the pool")
	}
}

// growAndMaintain installs the materialized view Infront{ahead}, commits the
// edge from -> to, and reads the view again, so that read maintains it.
func growAndMaintain(t *testing.T, db *dbpl.DB, from, to string) {
	t.Helper()
	if _, err := db.Query(`Infront{ahead}`); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str(from), dbpl.Str(to))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`Infront{ahead}`); err != nil {
		t.Fatal(err)
	}
}

// viewPoint is a point read over the view Infront{ahead}: the selector
// application and the set expression it abbreviates.
var viewPoint = [2]string{`Infront{ahead}[hidden_by("n3")]`, `{EACH r IN Infront{ahead}: r.head = "n3"}`}

// recomputed answers src from scratch over edges: in a database without
// materialization or optimization holding them.
func recomputed(t *testing.T, edges *dbpl.Relation, src string) *dbpl.Relation {
	t.Helper()
	ref := openWith(t, selectorModule, dbpl.WithoutMaterialization(), dbpl.WithoutOptimization())
	defer ref.Close()
	if err := ref.Assign("Infront", edges); err != nil {
		t.Fatal(err)
	}
	rel, err := ref.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestSelectorOverViewProbes: a point read over the materialized view
// Infront{ahead} probes the index maintenance left on the view exactly when
// the view carries one, and returns what recomputing from scratch returns:
// after a maintained growth read (probe), after an overwrite (delete-and-
// rederive leaves the state unindexed, so it scans), after growth again,
// inside a Tx, on the paged engine, without optimization (the selector
// scans), and with two readers probing while a writer grows the view.
func TestSelectorOverViewProbes(t *testing.T) {
	ctx := context.Background()
	// check runs both forms of the point read and reports, per form, whether
	// the execution probed the view: whether its first operator, the one
	// reading the view, read only the rows the result holds instead of the
	// whole view.
	check := func(t *testing.T, db *dbpl.DB, when string) [2]bool {
		t.Helper()
		edges, _ := db.Relation("Infront")
		var probed [2]bool
		for i, src := range viewPoint {
			p, err := db.ExplainQuery(ctx, src)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, src, err)
			}
			probed[i] = p.Analyze.Operators[0].RowsIn == int64(p.Analyze.Rows)
			got, err := db.Query(src)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, src, err)
			}
			if want := recomputed(t, edges, src); want.Len() == 0 || !got.Equal(want) {
				t.Errorf("%s: %s has %d tuples, recomputed %d\n%s", when, src, got.Len(), want.Len(), p.Text())
			}
		}
		return probed
	}
	for _, c := range []struct {
		name  string
		paged bool
		opts  []dbpl.Option
		// growth is what each form does after a maintained growth read.
		growth [2]bool
	}{
		{"memory", false, nil, [2]bool{true, true}},
		{"paged", true, nil, [2]bool{true, true}},
		{"parallel", false, parallelOpts(4), [2]bool{true, true}},
		// No views: every read recomputes the closure and scans it.
		{"unoptimized", false, []dbpl.Option{dbpl.WithoutOptimization()}, [2]bool{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts
			if c.paged {
				opts = append(opts, dbpl.WithPath(t.TempDir()), dbpl.WithBufferPoolPages(4))
			}
			db, err := dbpl.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			seedSelectorDB(t, db)

			growAndMaintain(t, db, "n40", "x1")
			if got := check(t, db, "after growth"); got != c.growth {
				t.Errorf("after growth: probed %v, want %v", got, c.growth)
			}

			// Re-draw n5 -> n6 as n5 -> n9: maintained by delete-and-rederive.
			cur, _ := db.Relation("Infront")
			redrawn := cur.Clone()
			redrawn.Delete(dbpl.NewTuple(dbpl.Str("n5"), dbpl.Str("n6")))
			redrawn.Add(dbpl.NewTuple(dbpl.Str("n5"), dbpl.Str("n9")))
			if err := db.Assign("Infront", redrawn); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Query(`Infront{ahead}`); err != nil {
				t.Fatal(err)
			}
			if got := check(t, db, "after an overwrite"); got != [2]bool{} {
				t.Errorf("after an overwrite: probed %v, want scans", got)
			}

			growAndMaintain(t, db, "x1", "x2")
			if got := check(t, db, "after growth again"); got != c.growth {
				t.Errorf("after growth again: probed %v, want %v", got, c.growth)
			}

			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Rollback() //nolint:errcheck // read-only from here
			if err := tx.Insert("Infront", dbpl.NewTuple(dbpl.Str("x2"), dbpl.Str("tx"))); err != nil {
				t.Fatal(err)
			}
			edges, _ := tx.Relation("Infront")
			for _, src := range viewPoint {
				got, err := tx.Query(ctx, src)
				if err != nil {
					t.Fatal(err)
				}
				if want := recomputed(t, edges, src); !got.Equal(want) || !got.Contains(dbpl.NewTuple(dbpl.Str("n3"), dbpl.Str("tx"))) {
					t.Errorf("inside a Tx: %s has %d tuples, recomputed %d", src, got.Len(), want.Len())
				}
			}
		})
	}

	// Two point readers probe (and memoize overlays on) view states that the
	// writer's maintained reads clone.
	t.Run("concurrent readers and a growing writer", func(t *testing.T) {
		db := openWith(t, selectorModule)
		defer db.Close()
		node := func(i int) dbpl.Value { return dbpl.Str(fmt.Sprintf("n%d", i)) }
		var edges []dbpl.Tuple
		for i := 0; i < 40; i++ {
			edges = append(edges, dbpl.NewTuple(node(i), node(i+1)))
		}
		if err := db.Insert("Infront", edges...); err != nil {
			t.Fatal(err)
		}
		growAndMaintain(t, db, "n40", "n41")
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, src := range viewPoint {
						if _, err := db.Query(src); err != nil {
							t.Errorf("concurrent point read: %v", err)
							return
						}
					}
				}
			}()
		}
		for i := 41; i < 71; i++ {
			if err := db.Insert("Infront", dbpl.NewTuple(node(i), node(i+1))); err != nil {
				t.Error(err)
				break
			}
			if _, err := db.Query(`Infront{ahead}`); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
		check(t, db, "after the concurrent stream")
	})
}
