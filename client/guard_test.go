package client

import (
	"context"
	"strings"
	"testing"
)

// TestGuardsServed: a guarded assignment sent over the wire is checked as it
// is embedded — the selector applied to the assigned value, with its FOR
// variable bound to it — by Exec, Tx.Exec and Commit. A rejected one names
// the dropped tuple and leaves the variable as it was.
func TestGuardsServed(t *testing.T) {
	ctx := context.Background()
	db, c := serve(t)
	if _, err := c.Exec(`
MODULE tops;
TYPE nrel = RELATION OF RECORD a: INTEGER END;
VAR N: nrel;
VAR Rel: nrel;
SELECTOR top () FOR R: nrel;
BEGIN EACH t IN R: ALL u IN R (u.a <= t.a) END top;
SELECTOR topg () FOR Rel: nrel;
BEGIN EACH t IN Rel: ALL u IN Rel (u.a <= t.a) END topg;
Rel := {<9>};
END tops.`); err != nil {
		t.Fatal(err)
	}
	n := func() string {
		rel, _ := db.Relation("N")
		return rel.String()
	}
	for _, sel := range []string{"top", "topg"} {
		if _, err := c.Exec("MODULE a; N[" + sel + "] := {<1>}; END a."); err != nil {
			t.Fatalf("N[%s] := {<1>}: %v", sel, err)
		}
		_, err := c.Exec("MODULE b; N[" + sel + "] := {<1>, <2>}; END b.")
		if err == nil || !strings.Contains(err.Error(), "tuple <1> violates") {
			t.Fatalf("N[%s] := {<1>, <2>}: %v, want a violation naming <1>", sel, err)
		}
		if got := n(); got != "{<1>}" {
			t.Fatalf("after a rejected assignment N = %s", got)
		}

		tx, err := c.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(ctx, "MODULE c; N["+sel+"] := {<1>, <2>}; END c."); err == nil || !strings.Contains(err.Error(), "tuple <1> violates") {
			t.Fatalf("Tx.Exec N[%s] := {<1>, <2>}: %v, want a violation naming <1>", sel, err)
		}
		if _, err := tx.Exec(ctx, "MODULE d; N["+sel+"] := {<4>}; END d."); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := n(); got != "{<4>}" {
			t.Fatalf("after Commit N = %s", got)
		}
		if _, err := c.Exec("MODULE e; N := {<1>}; END e."); err != nil {
			t.Fatal(err)
		}
	}
}
