package dbpl_test

// Session concurrency and cancellation tests: serial vs. concurrent equation
// evaluation in fixpoint rounds (the one parallel mechanism), concurrent
// queries sharing one session's cached plans and access paths, cancellation
// of a cursor over a join's result, Close racing in-flight queries, and
// goroutine accounting once a cursor is abandoned. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	dbpl "repro"

	"repro/internal/workload"
)

// parallelOpts lets a fixpoint round evaluate up to workers equations at once.
func parallelOpts(workers int) []dbpl.Option {
	return []dbpl.Option{dbpl.WithParallelism(workers)}
}

// mutualModule is the section 3.1 pair of mutually recursive constructors:
// ahead(Ontop) over Infront and above(Infront) over Ontop ground a system of
// two instances, so a fixpoint round has two equations to evaluate at once.
const mutualModule = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE ontoprel   = RELATION OF RECORD top, base: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
TYPE aboverel   = RELATION OF RECORD high, low: parttype END;
VAR Infront: infrontrel;
VAR Ontop:   ontoprel;

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

// assignEdges publishes edges as the Infront base relation of cadModule.
func assignEdges(t testing.TB, db *dbpl.DB, edges []workload.Edge) {
	t.Helper()
	inT, _ := db.StoreSnapshot().Type("Infront")
	if err := db.Assign("Infront", workload.EdgesToRelation(inT, edges)); err != nil {
		t.Fatal(err)
	}
}

// TestSerialParallelEquivalence runs every example workload's queries with
// WithParallelism(1) and WithParallelism(4) and requires identical result
// relations: evaluating a round's equations concurrently must be a pure
// optimization. A case with instances set first checks, through EXPLAIN
// ANALYZE, that each query grounds that many instances on both sides, so the
// parallel side really had equations to fan out.
func TestSerialParallelEquivalence(t *testing.T) {
	bom := workload.NewBOM(6, 3, 42)
	dag := workload.RandomDAG(6, 24, 2, 7)
	cases := []struct {
		name      string
		module    string
		setup     func(t *testing.T, db *dbpl.DB)
		queries   []string
		instances int
	}{
		{
			name:   "cad",
			module: cadModule,
			setup:  func(t *testing.T, db *dbpl.DB) { assignEdges(t, db, dag) },
			queries: []string{
				`Infront{ahead}`,
				`Infront[hidden_by("n0012")]`,
				fmt.Sprintf("Infront{ahead}[hidden_by(%q)]", workload.NodeName(12)),
				`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`,
				`{EACH v IN {EACH r IN Infront: r.front = "n0003"}: TRUE}`,
			},
		},
		{
			name:   "bom",
			module: bomModule,
			setup: func(t *testing.T, db *dbpl.DB) {
				if err := db.Assign("Contains", bom.Contains); err != nil {
					t.Fatal(err)
				}
			},
			queries: []string{
				`Contains{explode}`,
				fmt.Sprintf("Contains{explode}[of_assembly(%q)]", bom.Root),
				`Contains{invert}`,
				fmt.Sprintf("Contains{invert}[uses_part(%q)]", bom.Root),
			},
		},
		{
			name:    "samegen",
			module:  samegenModule,
			queries: []string{`Parent{samegen}`, `{EACH sg IN Parent{samegen}: sg.left = "alice"}`},
		},
		{
			name:   "cad-mutual",
			module: mutualModule,
			setup: func(t *testing.T, db *dbpl.DB) {
				assignEdges(t, db, dag)
				onT, _ := db.StoreSnapshot().Type("Ontop")
				if err := db.Assign("Ontop", workload.EdgesToRelation(onT, workload.RandomDAG(6, 24, 1, 11))); err != nil {
					t.Fatal(err)
				}
			},
			queries:   []string{`Infront{ahead(Ontop)}`, `Ontop{above(Infront)}`},
			instances: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := openWith(t, tc.module, dbpl.WithParallelism(1))
			parallel := openWith(t, tc.module, parallelOpts(4)...)
			defer serial.Close()
			defer parallel.Close()
			if tc.setup != nil {
				tc.setup(t, serial)
				tc.setup(t, parallel)
			}
			for _, q := range tc.queries {
				if tc.instances > 0 {
					checkInstances(t, serial, q, tc.instances)
					checkInstances(t, parallel, q, tc.instances)
				}
				a, err := serial.Query(q)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				b, err := parallel.Query(q)
				if err != nil {
					t.Fatalf("parallel %s: %v", q, err)
				}
				if !a.Equal(b) {
					t.Errorf("%s: serial %d tuples != parallel %d tuples", q, a.Len(), b.Len())
				}
			}
		})
	}
}

// checkInstances requires that q, run under EXPLAIN ANALYZE on db, grounds
// want constructor instances.
func checkInstances(t *testing.T, db *dbpl.DB, q string, want int) {
	t.Helper()
	p, err := db.ExplainQuery(context.Background(), q)
	if err != nil {
		t.Fatalf("explain %s: %v", q, err)
	}
	if got := p.Analyze.Instances; got != want {
		t.Errorf("%s at parallelism %d: %d instances, want %d", q, db.Parallelism(), got, want)
	}
}

// TestParallelConcurrentQueries hammers one session from many goroutines:
// every query shares the same cached plan and the same lazily built access
// paths.
func TestParallelConcurrentQueries(t *testing.T) {
	db := openWith(t, cadModule, parallelOpts(4)...)
	defer db.Close()
	assignEdges(t, db, workload.Chain(512))

	const joinQuery = `{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`
	stmt, err := db.Prepare(`Infront[hidden_by(Obj)]`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rel, err := db.Query(joinQuery)
				if err != nil {
					errs <- err
					return
				}
				if rel.Len() != 511 {
					errs <- fmt.Errorf("join returned %d tuples, want 511", rel.Len())
					return
				}
				sel, err := stmt.Query(context.Background(), workload.NodeName((g*8+i)%512))
				if err != nil {
					errs <- err
					return
				}
				if sel.Len() > 1 {
					errs <- fmt.Errorf("selector returned %d tuples, want <= 1", sel.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRowsCancelMidIteration cancels the query context after the first tuple
// of a cursor over a join's materialized result and checks that
// iteration stops with the cancellation reported by Err, and that Close
// still succeeds.
func TestRowsCancelMidIteration(t *testing.T) {
	db := openWith(t, cadModule, parallelOpts(4)...)
	defer db.Close()
	assignEdges(t, db, workload.Chain(20000))

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx,
		`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first tuple before cancellation: %v", rows.Err())
	}
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after cancellation = %v, want context.Canceled", err)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	t.Logf("consumed %d tuples after cancel before iteration stopped", n)
}

// TestCloseRacesParallelQuery races DB.Close against in-flight queries:
// evaluations against the pre-Close snapshot may finish or report
// ErrClosed, but nothing may panic or deadlock (run with -race).
func TestCloseRacesParallelQuery(t *testing.T) {
	for round := 0; round < 4; round++ {
		db := openWith(t, cadModule, parallelOpts(4)...)
		assignEdges(t, db, workload.Chain(4096))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := db.QueryContext(context.Background(),
					`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`)
				if err != nil {
					return // ErrClosed: Close won the race
				}
				for rows.Next() {
				}
				rows.Close()
			}()
		}
		db.Close()
		wg.Wait()
	}
}

// TestRowsCloseMidIterationLeavesNoGoroutines abandons a cursor over a join's
// materialized result after one tuple and checks that nothing outlives it —
// the evaluation ended before the cursor opened, and the cursor is a position
// in the result, not a goroutine: goroutine accounting, no leak detector
// dependency.
func TestRowsCloseMidIterationLeavesNoGoroutines(t *testing.T) {
	db := openWith(t, cadModule, parallelOpts(4)...)
	defer db.Close()
	assignEdges(t, db, workload.Chain(20000))

	before := runtime.NumGoroutine()
	rows, err := db.QueryContext(context.Background(),
		`{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first tuple: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after mid-iteration Close = %v, want nil (closing early is not a failure)", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close: before=%d after=%d\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestRowsDroppedWithoutCloseLeaksNothing reads one tuple from each of many
// cursors and drops them without Close: a Rows holds no goroutine, so the
// goroutine count does not move.
func TestRowsDroppedWithoutCloseLeaksNothing(t *testing.T) {
	db := openWith(t, cadModule)
	defer db.Close()
	assignEdges(t, db, workload.Chain(64))

	before := runtime.NumGoroutine()
	for range 1000 {
		rows, err := db.QueryContext(context.Background(), `Infront`)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first tuple: %v", rows.Err())
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines left by dropped cursors: before=%d after=%d\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
