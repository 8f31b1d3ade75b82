package dbpl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	dbpl "repro"
)

// topModule declares the selector top, whose body reads its FOR variable
// twice, and topg, the same body over a FOR variable that shares its name
// with a database variable holding another value. A guard is the selector's
// application to the assigned value, so neither may read anything else.
const topModule = `
MODULE tops;
TYPE nrel = RELATION OF RECORD a: INTEGER END;
VAR N: nrel;
VAR Rel: nrel;

SELECTOR top () FOR R: nrel;
BEGIN EACH t IN R: ALL u IN R (u.a <= t.a) END top;

SELECTOR topg () FOR Rel: nrel;
BEGIN EACH t IN Rel: ALL u IN Rel (u.a <= t.a) END topg;

Rel := {<9>};
N := {<5>};
END tops.
`

// assertN checks N's value as the database sees it.
func assertN(t *testing.T, db *dbpl.DB, want string) {
	t.Helper()
	if got, _ := db.Relation("N"); got.String() != want {
		t.Errorf("N = %s, want %s", got, want)
	}
}

// TestGuardIsSelectorApplication: V[sel] := rex holds iff rex[sel] = rex,
// with sel's FOR variable bound to rex, embedded and inside a transaction,
// at write time and at Commit.
func TestGuardIsSelectorApplication(t *testing.T) {
	ctx := context.Background()
	for _, sel := range []string{"top", "topg"} {
		t.Run(sel, func(t *testing.T) {
			db := openWith(t, topModule)
			if _, err := db.Exec(fmt.Sprintf("MODULE a; N[%s] := {<1>}; END a.", sel)); err != nil {
				t.Fatalf("N[%s] := {<1>}: %v", sel, err)
			}
			assertN(t, db, "{<1>}")

			_, err := db.Exec(fmt.Sprintf("MODULE b; N[%s] := {<1>, <2>}; END b.", sel))
			var gv *dbpl.GuardViolationError
			if !errors.As(err, &gv) || gv.Variable != "N" || gv.Guard != sel || gv.Tuple.String() != "<1>" {
				t.Fatalf("N[%s] := {<1>, <2>}: %v, want a violation naming <1>", sel, err)
			}
			assertN(t, db, "{<1>}")

			// Inside a transaction: the rejected write leaves the overlay
			// alone, and Commit re-checks the accepted one over the final
			// state, in which the database variable Rel has changed.
			tx, err := db.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(ctx, fmt.Sprintf("MODULE c; N[%s] := {<3>}; END c.", sel)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(ctx, fmt.Sprintf("MODULE d; N[%s] := {<1>, <2>}; END d.", sel)); !errors.As(err, &gv) || gv.Tuple.String() != "<1>" {
				t.Fatalf("Tx.Exec N[%s] := {<1>, <2>}: %v, want a violation naming <1>", sel, err)
			}
			if _, err := tx.Exec(ctx, "MODULE e; Rel := {<0>, <7>}; END e."); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			assertN(t, db, "{<3>}")
		})
	}
}

// TestGuardAgreesWithRead is the property behind the guard rule: for random
// values rex, V[sel] := rex succeeds iff the query rex[sel] returns rex, for
// every selector of guardModule and top, optimized or not. A rejected
// assignment leaves V as it was; an accepted one stores rex.
func TestGuardAgreesWithRead(t *testing.T) {
	names := []string{"x", "y", "z", "w"}
	edges := func(rng *rand.Rand) string {
		var ts []string
		for _, a := range names {
			for _, b := range names[:2] {
				if rng.Intn(3) == 0 {
					ts = append(ts, fmt.Sprintf("<%q,%q>", a, b))
				}
			}
		}
		if len(ts) == 0 {
			ts = append(ts, `<"w","x">`)
		}
		return "{" + strings.Join(ts, ", ") + "}"
	}
	objects := func(rng *rand.Rand) string {
		ts := []string{`<"x">`}
		for _, n := range names[1:] {
			if rng.Intn(2) == 0 {
				ts = append(ts, fmt.Sprintf("<%q>", n))
			}
		}
		return "{" + strings.Join(ts, ", ") + "}"
	}
	ints := func(rng *rand.Rand) string {
		ts := []string{fmt.Sprintf("<%d>", rng.Intn(4))}
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				ts = append(ts, fmt.Sprintf("<%d>", rng.Intn(4)))
			}
		}
		return "{" + strings.Join(ts, ", ") + "}"
	}
	cases := []struct {
		target, sel string
		rex         func(*rand.Rand) string
	}{
		{"Edges", "refint", edges},
		{"Edges", "refhash", edges},
		{"Edges", "refpar(Objects)", edges},
		{"Objects", `has_name("x")`, objects},
		{"N", "top", ints},
	}
	module := guardModule[:strings.LastIndex(guardModule, "END g.")] + `
TYPE nrel = RELATION OF RECORD a: INTEGER END;
VAR N: nrel;
SELECTOR top () FOR R: nrel;
BEGIN EACH t IN R: ALL u IN R (u.a <= t.a) END top;
END g.`
	for _, opts := range [][]dbpl.Option{nil, {dbpl.WithoutOptimization()}} {
		db := openWith(t, module, opts...)
		rng := rand.New(rand.NewSource(53))
		accepted := 0
		for trial := 0; trial < 200; trial++ {
			if _, err := db.Exec("MODULE s; Objects := " + objects(rng) + "; END s."); err != nil {
				t.Fatal(err)
			}
			c := cases[rng.Intn(len(cases))]
			rex := c.rex(rng)
			want, err := db.Query(rex)
			if err != nil {
				t.Fatal(err)
			}
			read, err := db.Query(rex + "[" + c.sel + "]")
			if err != nil {
				t.Fatal(err)
			}
			before, _ := db.Relation(c.target)
			stmt := fmt.Sprintf("%s[%s] := %s", c.target, c.sel, rex)
			_, err = db.Exec("MODULE p; " + stmt + "; END p.")
			after, _ := db.Relation(c.target)
			var gv *dbpl.GuardViolationError
			switch {
			case read.Equal(want):
				if err != nil || !after.Equal(want) {
					t.Fatalf("%s: read returns rex, but the assignment gave %v and %s", stmt, err, after)
				}
				accepted++
			case !errors.As(err, &gv) || !after.Equal(before) || read.Contains(gv.Tuple):
				t.Fatalf("%s: read returns %s, but the assignment gave %v and %s", stmt, read, err, after)
			}
		}
		if accepted == 0 || accepted == 200 {
			t.Errorf("%d of 200 assignments accepted: the trials do not exercise both outcomes", accepted)
		}
	}
}
