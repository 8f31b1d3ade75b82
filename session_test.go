package dbpl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// chainModule declares a transitive-closure constructor over an edge
// relation; the chain data makes the fixpoint depth proportional to the
// chain length, which the cancellation tests rely on.
const chainModule = `
MODULE chain;
TYPE node  = STRING;
TYPE edges = RELATION OF RECORD a, b: node END;
VAR E: edges;

CONSTRUCTOR tc FOR Rel: edges (): edges;
BEGIN
  EACH r IN Rel: TRUE,
  <x.a, y.b> OF EACH x IN Rel, EACH y IN Rel{tc}: x.b = y.a
END tc;
END chain.
`

func chainDB(t testing.TB, n int) *DB {
	t.Helper()
	db := mustOpen(t)
	if _, err := db.Exec(chainModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = NewTuple(Str(fmt.Sprintf("n%04d", i)), Str(fmt.Sprintf("n%04d", i+1)))
	}
	if err := db.Insert("E", tuples...); err != nil {
		t.Fatalf("insert: %v", err)
	}
	return db
}

func TestOpenOptions(t *testing.T) {
	// Mode and strictness through options (no view cache: the second E{tc}
	// below must evaluate, not hit).
	db, err := Open(WithMode(Naive), WithStrict(false), WithoutMaterialization())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A non-positive constructor is admitted when strictness is off, and by
	// every later module: strictness is fixed at Open.
	const laxModule = `
MODULE lax;
TYPE cardrel = RELATION OF RECORD number: CARDINAL END;
CONSTRUCTOR strange FOR Baserel: cardrel (): cardrel;
BEGIN
  EACH r IN Baserel: NOT SOME s IN Baserel{strange} (r.number = s.number + 1)
END strange;
END lax.
`
	if _, err := db.Exec(laxModule); err != nil {
		t.Errorf("lax mode rejected the strange constructor: %v", err)
	}
	if _, err := db.Exec(strings.NewReplacer("lax", "lax2", "cardrel", "cardrel2", "strange", "stranger").Replace(laxModule)); err != nil {
		t.Errorf("lax mode rejected a second non-positive constructor: %v", err)
	}
	// The mode reaches the engine that evaluates.
	if _, err := db.Exec(chainModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if err := db.Insert("E", NewTuple(Str("a"), Str("b")), NewTuple(Str("b"), Str("c"))); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := db.Query(`E{tc}`); err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := db.LastStats().Mode; got != Naive {
		t.Errorf("mode: got %v, want Naive", got)
	}
	db.SetMode(SemiNaive)
	if _, err := db.Query(`E{tc}`); err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := db.LastStats().Mode; got != SemiNaive {
		t.Errorf("mode after SetMode: got %v, want SemiNaive", got)
	}

	// LoadStore right after Open seeds the relation variables from a Save
	// image.
	src := chainDB(t, 3)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	db2 := mustOpen(t)
	if err := db2.LoadStore(&buf); err != nil {
		t.Fatalf("load store: %v", err)
	}
	e, ok := db2.Relation("E")
	if !ok || e.Len() != 3 {
		t.Errorf("store reader: E not loaded (ok=%v)", ok)
	}
}

func TestConcurrentQueryDuringExec(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}

	const readers = 8
	const rounds = 40
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)

	// Writers: module execution re-assigning Infront, plus programmatic
	// inserts into a second variable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			mod := fmt.Sprintf(`
MODULE w;
Infront := {<"vase","table">, <"table","chair">, <"chair","door">, <"door","wall%d">};
END w.
`, i)
			if _, err := db.ExecContext(ctx, mod); err != nil {
				errc <- fmt.Errorf("writer exec: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := db.Insert("Infront", NewTuple(Str(fmt.Sprintf("x%d", i)), Str("y"))); err != nil {
				errc <- fmt.Errorf("writer insert: %w", err)
				return
			}
		}
	}()

	// Readers: recursive closure queries against snapshots.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rows, err := db.QueryContext(ctx, `Infront{ahead}`)
				if err != nil {
					errc <- fmt.Errorf("reader: %w", err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				rows.Close()
				if n == 0 {
					errc <- fmt.Errorf("reader: empty closure")
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := chainDB(t, 1200)

	// Already-cancelled context: deterministic immediate abort.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `E{tc}`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: got %v, want context.Canceled", err)
	}

	// Deadline during the fixpoint of a deep recursion: the iteration must
	// abort long before the ~1200 rounds complete.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := db.QueryContext(ctx2, `E{tc}`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deep recursion: got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; iteration did not abort promptly", elapsed)
	}

	// ExecContext honors cancellation inside SHOW of a constructed range.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := db.ExecContext(ctx3, `
MODULE s;
SHOW E{tc};
END s.
`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exec: got %v, want context.Canceled", err)
	}
}

func TestStmtReuseMatchesOneShot(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	want, err := db.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	stmt, err := db.Prepare(`Infront{ahead}`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		got, err := stmt.Query(ctx)
		if err != nil {
			t.Fatalf("stmt query %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("stmt query %d: got %s, want %s", i, got, want)
		}
	}
	if err := stmt.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := stmt.Query(ctx); !errors.Is(err, ErrStmtClosed) {
		t.Errorf("closed stmt: got %v, want ErrStmtClosed", err)
	}
}

func TestStmtScalarParameters(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	stmt, err := db.Prepare(`Infront[hidden_by(Obj)]{ahead}`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if ps := stmt.Params(); len(ps) != 1 || ps[0] != "Obj" {
		t.Fatalf("params: got %v, want [Obj]", ps)
	}
	ctx := context.Background()
	for _, obj := range []string{"table", "vase"} {
		got, err := stmt.Query(ctx, obj)
		if err != nil {
			t.Fatalf("stmt query(%q): %v", obj, err)
		}
		want, err := db.Query(fmt.Sprintf(`Infront[hidden_by(%q)]{ahead}`, obj))
		if err != nil {
			t.Fatalf("one-shot(%q): %v", obj, err)
		}
		if !got.Equal(want) {
			t.Errorf("parameter %q: got %s, want %s", obj, got, want)
		}
	}
	// Arity is enforced.
	if _, err := stmt.Query(ctx); err == nil {
		t.Error("missing argument accepted")
	}
	// Unknown names fail at prepare time.
	if _, err := db.Prepare(`Nowhere{ahead}`); err == nil {
		t.Error("unknown relation accepted at prepare time")
	}
	if _, err := db.Prepare(`Infront{nosuch}`); err == nil {
		t.Error("unknown constructor accepted at prepare time")
	}
}

func TestRowsCursor(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	rows, err := db.QueryContext(context.Background(), `Infront{ahead}`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "head" || cols[1] != "tail" {
		t.Errorf("columns: got %v, want [head tail]", cols)
	}
	if rows.Len() != 6 {
		t.Errorf("len: got %d, want 6", rows.Len())
	}
	seen := map[string]bool{}
	for rows.Next() {
		var head, tail string
		if err := rows.Scan(&head, &tail); err != nil {
			t.Fatalf("scan: %v", err)
		}
		seen[head+"->"+tail] = true
	}
	if len(seen) != 6 {
		t.Errorf("iterated %d distinct tuples, want 6", len(seen))
	}
	if !seen["vase->door"] {
		t.Errorf("missing derived tuple vase->door: %v", seen)
	}
	if err := rows.Err(); err != nil {
		t.Errorf("rows err: %v", err)
	}
}

func TestPlanCache(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if n := db.PlanCacheLen(); n != 0 {
		t.Fatalf("fresh cache: %d entries", n)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Query(`Infront{ahead}`); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if n := db.PlanCacheLen(); n != 1 {
		t.Errorf("repeated query cached %d plans, want 1", n)
	}
}

func TestConcurrentLoadStoreAndAccessors(t *testing.T) {
	donor := chainDB(t, 4)
	var img bytes.Buffer
	if err := donor.Save(&img); err != nil {
		t.Fatalf("save: %v", err)
	}
	db := chainDB(t, 4)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := db.LoadStore(bytes.NewReader(img.Bytes())); err != nil {
				t.Errorf("load: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				db.Relation("E")
				// Inserts may race a swap and either land or be checked
				// against the fresh store; both must be race-free.
				_ = db.Insert("E", NewTuple(Str("a"), Str("b")))
			}
		}()
	}
	wg.Wait()
}

func TestPlanCacheInvalidatedByDeclarations(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(`
MODULE m1;
TYPE t = STRING;
TYPE e = RELATION OF RECORD a, b: t END;
VAR E: e;
CONSTRUCTOR merged FOR Rel: e (Aux: e): e;
BEGIN
  EACH r IN Rel: TRUE,
  EACH s IN Aux: TRUE
END merged;
E := {<"x","y">};
END m1.
`); err != nil {
		t.Fatalf("exec: %v", err)
	}

	// With W undeclared, the cached plan classifies it as a scalar
	// parameter, which a one-shot Query cannot bind.
	const q = `E{merged(W)}`
	if _, err := db.Query(q); err == nil {
		t.Fatal("query with undeclared W succeeded")
	}

	// Declaring W must invalidate the cached plan so the same query string
	// now resolves W as a relation argument.
	if _, err := db.Exec(`
MODULE m2;
VAR W: e;
W := {<"p","q">};
END m2.
`); err != nil {
		t.Fatalf("exec m2: %v", err)
	}
	rel, err := db.Query(q)
	if err != nil {
		t.Fatalf("query after declaration: %v", err)
	}
	if rel.Len() != 2 {
		t.Errorf("merged result: got %s, want E union W (2 tuples)", rel)
	}

	// Programmatic Declare invalidates too.
	db.Query(`E`) //nolint:errcheck // populate the cache
	before := db.PlanCacheLen()
	if err := db.Declare("Fresh", rel.Type()); err != nil {
		t.Fatalf("declare: %v", err)
	}
	if after := db.PlanCacheLen(); after != 0 || before == 0 {
		t.Errorf("Declare did not clear the plan cache (before=%d after=%d)", before, after)
	}
}

func TestLoadStoreDropsStaleRelations(t *testing.T) {
	// A database whose store knows only E.
	donor := chainDB(t, 2)
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}

	// A database that additionally declared and populated Infront.
	db := chainDB(t, 2)
	if _, err := db.Exec(cadModule); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if r, err := db.Query(`Infront`); err != nil || r.Len() == 0 {
		t.Fatalf("pre-load query: %v (len %d)", err, r.Len())
	}

	// After loading the donor store, Infront must stop resolving instead of
	// serving the stale pre-load value.
	if err := db.LoadStore(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	if r, err := db.Query(`Infront`); err == nil {
		t.Errorf("stale relation still resolves after LoadStore: %s", r)
	}
	// Relations present in the loaded store work.
	if r, err := db.Query(`E`); err != nil || r.Len() != 2 {
		t.Errorf("loaded relation: %v (want 2 tuples, got %v)", err, r)
	}
}
