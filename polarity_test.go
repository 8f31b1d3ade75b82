package dbpl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// polaritySchema declares what the constructor texts below read: two integer
// relations and two selectors that are not monotone in their inputs — notin
// negates its argument, top keeps only its base's maxima.
const polaritySchema = `
MODULE pol;
TYPE nrel = RELATION OF RECORD a: INTEGER END;
VAR N: nrel;
VAR O: nrel;
SELECTOR notin (S: nrel) FOR R: nrel;
BEGIN EACH t IN R: NOT (t IN S) END notin;
SELECTOR top () FOR R: nrel;
BEGIN EACH t IN R: ALL u IN R (u.a <= t.a) END top;
END pol.
`

// polarityDB opens a database with polaritySchema, N = {1..n} and O = {2,3},
// and declares constructor c with the given body.
func polarityDB(t *testing.T, n int, body string, opts ...Option) (*DB, error) {
	t.Helper()
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(polaritySchema); err != nil {
		t.Fatalf("schema: %v", err)
	}
	for i := 1; i <= n; i++ {
		if err := db.Insert("N", NewTuple(Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("O", NewTuple(Int(2)), NewTuple(Int(3))); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(fmt.Sprintf("MODULE cm;\nCONSTRUCTOR c FOR Rel: nrel (): nrel;\nBEGIN\n  %s\nEND c;\nEND cm.\n", body))
	return db, err
}

// TestPolarityRejectsNonMonotoneConstructors: a recursive occurrence in an
// ALL range, one feeding a selector that negates its input, and one that is
// the base of an antitone selector each make c non-monotone. Strict checking
// rejects each and names the occurrence; without it, the naive iteration the
// engine falls back to reports that it does not converge instead of
// returning a set that is not a fixpoint.
func TestPolarityRejectsNonMonotoneConstructors(t *testing.T) {
	bodies := map[string]string{
		"ALL range":       `EACH r IN Rel: ALL x IN Rel{c} (x.a # r.a)`,
		"negated input":   `EACH r IN Rel: SOME x IN O[notin(Rel{c})] (x.a = r.a)`,
		"antitone prefix": `EACH r IN Rel: r.a = 1, EACH r IN Rel: SOME x IN Rel{c}[top] (x.a + 1 = r.a)`,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			_, err := polarityDB(t, 3, body)
			var pe *PositivityError
			if !errors.As(err, &pe) {
				t.Fatalf("strict: got %T %v, want *PositivityError", err, err)
			}
			if !strings.Contains(err.Error(), "Rel{c}") {
				t.Errorf("strict: %v does not name the recursive occurrence Rel{c}", err)
			}

			db, err := polarityDB(t, 3, body, WithStrict(false))
			if err != nil {
				t.Fatalf("lax: %v", err)
			}
			got, err := db.Query(`N{c}`)
			var osc *OscillationError
			var bound *BoundExceededError
			if !errors.As(err, &osc) && !errors.As(err, &bound) {
				t.Errorf("lax: N{c} = %v, %v; want an oscillation or round-bound error", got, err)
			}
		})
	}
}

// TestPolarityAcceptsMonotoneALLBody: a recursive occurrence inside an ALL's
// body is monotone, so strict checking accepts it and semi-naive evaluation
// reaches the naive fixpoint.
func TestPolarityAcceptsMonotoneALLBody(t *testing.T) {
	const body = `EACH r IN Rel: r.a = 1,
  EACH r IN Rel: ALL x IN O (x.a # r.a OR SOME y IN Rel{c} (y.a + 1 = r.a))`
	db, err := polarityDB(t, 4, body, WithoutMaterialization())
	if err != nil {
		t.Fatalf("strict rejected a monotone constructor: %v", err)
	}
	semi, err := db.Query(`N{c}`)
	if err != nil {
		t.Fatal(err)
	}
	if db.LastStats().Mode != SemiNaive {
		t.Errorf("mode %v, want semi-naive", db.LastStats().Mode)
	}
	db.SetMode(Naive)
	naive, err := db.Query(`N{c}`)
	if err != nil {
		t.Fatal(err)
	}
	if !semi.Equal(naive) {
		t.Errorf("semi-naive %s != naive %s", semi, naive)
	}
	if got := semi.String(); !strings.Contains(got, "{<1>, <2>, <3>, <4>}") {
		t.Errorf("N{c} = %s, want {1,2,3,4}", got)
	}
}

// FuzzStrictConstructorIsMonotone: the input spells a predicate — a NOT,
// AND, OR, SOME and ALL tree over Rel, Rel{c} and the global O — that
// becomes the recursive branch of c beside the seed branch r.a = 1. Whenever
// strict checking accepts c, c is monotone: the naive iteration never sees
// its state shrink, and semi-naive evaluation reaches the same fixpoint.
func FuzzStrictConstructorIsMonotone(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1})                // ALL x0 IN Rel{c} (x0.a # r.a)
	f.Add([]byte{5, 2, 2, 0, 1, 4, 1, 0, 0}) // ALL x0 IN O ((x0.a # r.a OR SOME x1 IN Rel{c} (x1.a + 1 = r.a)))
	f.Add([]byte{3, 4, 1, 0, 0})             // NOT (SOME x0 IN Rel{c} (x0.a + 1 = r.a))
	f.Add([]byte{3, 5, 1, 0, 1})             // NOT (ALL x0 IN Rel{c} (x0.a # r.a))
	f.Add([]byte{4, 2, 3, 0, 3, 1})          // SOME x0 IN O (NOT (x0 IN Rel{c}))
	f.Fuzz(func(t *testing.T, shape []byte) {
		pred := fuzzPred(&shape, 0)
		db, err := polarityDB(t, 5, "EACH r IN Rel: r.a = 1,\n  EACH r IN Rel: "+pred, WithoutMaterialization())
		var pe *PositivityError
		if errors.As(err, &pe) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		db.SetMode(Naive)
		naive, err := db.Query(`N{c}`)
		if err != nil {
			t.Fatalf("accepted %s, but naive evaluation failed: %v", pred, err)
		}
		db.SetMode(SemiNaive)
		semi, err := db.Query(`N{c}`)
		if err != nil {
			t.Fatalf("accepted %s, but semi-naive evaluation failed: %v", pred, err)
		}
		if !semi.Equal(naive) {
			t.Fatalf("accepted %s: semi-naive %s != naive %s", pred, semi, naive)
		}
	})
}

// fuzzPred decodes a predicate over r and the quantified variables x0, x1,
// ... from the front of shape, one byte per choice; an exhausted shape picks
// the first alternative.
func fuzzPred(shape *[]byte, depth int) string {
	next := func(n int) int {
		if len(*shape) == 0 {
			return 0
		}
		v := int((*shape)[0]) % n
		*shape = (*shape)[1:]
		return v
	}
	rng := func() string { return []string{"Rel", "Rel{c}", "O"}[next(3)] }
	v := "r"
	if depth > 0 {
		v = fmt.Sprintf("x%d", depth-1)
	}
	kind := 0
	if depth < 4 {
		kind = next(6)
	}
	x := fmt.Sprintf("x%d", depth)
	switch kind {
	case 1:
		return "(" + fuzzPred(shape, depth) + " AND " + fuzzPred(shape, depth) + ")"
	case 2:
		return "(" + fuzzPred(shape, depth) + " OR " + fuzzPred(shape, depth) + ")"
	case 3:
		return "NOT (" + fuzzPred(shape, depth) + ")"
	case 4:
		return "SOME " + x + " IN " + rng() + " (" + fuzzPred(shape, depth+1) + ")"
	case 5:
		return "ALL " + x + " IN " + rng() + " (" + fuzzPred(shape, depth+1) + ")"
	}
	switch next(4) {
	case 0:
		return v + ".a + 1 = r.a"
	case 1:
		return v + ".a # r.a"
	case 2:
		return v + ".a < 3"
	default:
		return v + " IN " + rng()
	}
}
