// Quickstart: the paper's running example end to end — declare the CAD
// types, define the recursive ahead constructor, load Infront facts, and
// query the constructed relation (transitive closure) through the session
// API: Open with options, context-aware execution, a prepared statement
// with a scalar parameter, and a row cursor.
package main

import (
	"context"
	"fmt"
	"log"

	dbpl "repro"
)

const module = `
MODULE quickstart;

TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;

VAR Infront: infrontrel;

(* Section 2.3: the predicative sub-relation view used for "behind X". *)
SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

(* Section 3.1: all object pairs separated by an arbitrary number of steps. *)
CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;

Infront := {<"vase","table">, <"table","chair">, <"chair","door">};

SHOW Infront;
SHOW Infront{ahead};

END quickstart.
`

func main() {
	ctx := context.Background()

	// Open a session; options select the fixpoint strategy, strictness,
	// durability and the storage engine.
	db, err := dbpl.Open(dbpl.WithMode(dbpl.SemiNaive))
	if err != nil {
		log.Fatalf("open: %v", err)
	}

	out, err := db.ExecContext(ctx, module)
	if err != nil {
		log.Fatalf("exec: %v", err)
	}
	fmt.Print(out)

	// Iterate the closure through a row cursor: the caller scans tuples
	// without copying the result relation into a slice of its own.
	rows, err := db.QueryContext(ctx, `Infront{ahead}`)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	stats := db.LastStats()
	fmt.Printf("\nInfront{ahead} has %d tuples (mode=%s, rounds=%d, instances=%d)\n",
		rows.Len(), stats.Mode, stats.Rounds, stats.Instances)
	for rows.Next() {
		var head, tail string
		if err := rows.Scan(&head, &tail); err != nil {
			log.Fatalf("scan: %v", err)
		}
		if head == "vase" && tail == "door" {
			fmt.Println("the vase is ahead of the door")
		}
	}
	rows.Close()

	// A prepared statement: parsed and resolved once, executed repeatedly
	// with the selector parameter bound per call.
	stmt, err := db.Prepare(`Infront{ahead}[hidden_by(Obj)]`)
	if err != nil {
		log.Fatalf("prepare: %v", err)
	}
	defer stmt.Close()
	for _, obj := range []string{"vase", "table"} {
		behind, err := stmt.Query(ctx, obj)
		if err != nil {
			log.Fatalf("stmt query: %v", err)
		}
		fmt.Printf("behind %q: %s\n", obj, behind)
	}

	// EXPLAIN: the compiled plan of a query — the optimizer pass trace,
	// quantifier ordering, and chosen access paths — without executing it...
	plan, err := db.Explain(ctx, `Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		log.Fatalf("explain: %v", err)
	}
	fmt.Println("\nEXPLAIN:")
	fmt.Print(plan.Text())

	// ...and EXPLAIN ANALYZE: the same plan with one execution's counters
	// (result rows, fixpoint rounds, partition lookups vs. scans).
	analyzed, err := db.ExplainQuery(ctx, `Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		log.Fatalf("explain analyze: %v", err)
	}
	fmt.Println("\nEXPLAIN ANALYZE:")
	fmt.Print(analyzed.Text())

	// The compiler side: the augmented quant graph of section 4 / Fig 3.
	fmt.Println("\naugmented quant graph:")
	fmt.Print(db.QuantGraphASCII())
}
