package dbpl_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	dbpl "repro"
	"repro/client"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// pathSchema declares what the statement modules of TestExecAndTxExecAgree
// run over: a base relation with a recursive constructor, and an integrity
// guard whose body reads a second relation.
const pathSchema = `
MODULE schema;
TYPE parttype   = STRING;
TYPE objectrel  = RELATION part OF RECORD part: parttype END;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Objects: objectrel;
VAR Infront: infrontrel;

SELECTOR refint () FOR Rel: infrontrel;
BEGIN EACH r IN Rel: SOME o IN Objects (r.front = o.part) END refint;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;

Objects := {<"vase">, <"table">};
Infront := {<"vase","table">};
END schema.
`

// TestExecAndTxExecAgree runs the same statement modules through DB.Exec and
// through Begin/Tx.Exec/Commit: one statement executor serves both, so SHOW
// output, errors and the resulting store state must be identical — including
// a guarded assignment that violates its selector and an assignment through a
// constructed relation, which both paths reject without touching the state.
func TestExecAndTxExecAgree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, stmts string
		wantErr     string // substring; "" means success
		wantShow    string // substring of the SHOW output
		wantInfront int
	}{
		{
			name: "assign then show sees the write",
			stmts: `Infront := {<"vase","table">, <"table","chair">};
			        SHOW Infront{ahead};
			        SHOW Infront[hidden_by("table")];`,
			wantShow:    `<"vase", "chair">`,
			wantInfront: 2,
		},
		{
			name: "guarded assignment passes",
			stmts: `Infront[refint] := {<"table","vase">, <"vase","table">};
			        SHOW Infront;`,
			wantShow:    `<"table", "vase">`,
			wantInfront: 2,
		},
		{
			name: "guard reads an earlier statement's write",
			stmts: `Objects := {<"lamp">};
			        Infront[refint][hidden_by("lamp")] := {<"lamp","desk">};`,
			wantInfront: 1,
		},
		{
			name: "guard violation leaves the state untouched",
			stmts: `SHOW Infront;
			        Infront[refint] := {<"chair","table">};
			        SHOW Objects;`,
			wantErr:     `assignment to Infront[refint] rejected`,
			wantShow:    `Infront = `,
			wantInfront: 1,
		},
		{
			name: "a repeated tuple collapses under the key",
			stmts: `Objects := {<"lamp">, <"lamp">};
			        SHOW Objects;`,
			wantShow:    `{<"lamp">}`,
			wantInfront: 1,
		},
		{
			name:        "assignment through a constructed relation",
			stmts:       `Infront{ahead} := {<"a","b">};`,
			wantErr:     "assignment through a constructed relation",
			wantInfront: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			module := "MODULE s;\n" + tc.stmts + "\nEND s."

			direct := openWith(t, pathSchema)
			directOut, directErr := direct.ExecContext(ctx, module)

			viaTx := openWith(t, pathSchema)
			tx, err := viaTx.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			txOut, txErr := tx.Exec(ctx, module)
			// Statements are individually atomic on both paths: the writes
			// before a failed statement stand, so they commit here too.
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}

			if directOut != txOut {
				t.Errorf("SHOW output differs:\nExec:    %q\nTx.Exec: %q", directOut, txOut)
			}
			if !strings.Contains(directOut, tc.wantShow) {
				t.Errorf("SHOW output %q lacks %q", directOut, tc.wantShow)
			}
			if fmt.Sprint(directErr) != fmt.Sprint(txErr) {
				t.Errorf("errors differ:\nExec:    %v\nTx.Exec: %v", directErr, txErr)
			}
			if tc.wantErr == "" && directErr != nil {
				t.Errorf("unexpected error: %v", directErr)
			}
			if tc.wantErr != "" && (directErr == nil || !strings.Contains(directErr.Error(), tc.wantErr)) {
				t.Errorf("error %v, want one containing %q", directErr, tc.wantErr)
			}
			for _, name := range []string{"Objects", "Infront"} {
				a, _ := direct.Relation(name)
				b, _ := viaTx.Relation(name)
				if !a.Equal(b) {
					t.Errorf("%s differs:\nExec:    %s\nTx.Exec: %s", name, a, b)
				}
			}
			if rel, _ := direct.Relation("Infront"); rel.Len() != tc.wantInfront {
				t.Errorf("Infront has %d tuples, want %d: %s", rel.Len(), tc.wantInfront, rel)
			}
		})
	}
}

// matrixSchema is pathSchema plus a relation no infrontrel selector or
// constructor fits, and a variable the matrix's assignments target.
const matrixSchema = `
MODULE more;
TYPE stockrel = RELATION OF RECORD item: STRING; qty: INTEGER END;
VAR Stock: stockrel;
VAR Sink: infrontrel;
END more.
`

// TestEntryPointsAgreeOnTypeErrors is the other half of one evaluation path:
// one static check in front of it. Every way an expression enters the session
// — a module's SHOW, a transaction's SHOW and assignment, Prepare, Query,
// Tx.Query, Explain, ExplainQuery, and Prepare and Tx.Exec over the wire —
// rejects an ill-typed one with the same *TypeError, whether the relations it
// ranges over hold tuples or not (an ill-typed predicate over an empty
// relation is never evaluated, so only a static check can see it), before
// anything is evaluated or written.
func TestEntryPointsAgreeOnTypeErrors(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ name, expr, want string }{
		{"unknown attribute", `{EACH r IN Infront: r.nosuch = "a"}`, `variable "r" has no attribute "nosuch"`},
		{"kind-mismatched comparison", `{EACH r IN Infront: r.front = 3}`, `comparison = between parttype and INTEGER`},
		{"selector over an incompatible base", `Stock[hidden_by("a")]`, `selector "hidden_by" expects base of type`},
		{"constructor over an incompatible base", `Stock{ahead}`, `constructor "ahead" expects base of type`},
		{"unbound tuple variable", `{EACH r IN Infront: q.front = "a"}`, `unbound tuple variable "q"`},
		{"incompatible branches", `{EACH r IN Infront: TRUE, EACH s IN Stock: TRUE}`, `branch 2 yields`},
		{"non-integer arithmetic", `{EACH s IN Stock: s.qty + s.item = 3}`, `arithmetic + on non-integer operands`},
		{"wrong-kind selector argument", `Infront[hidden_by(3)]`, `argument 1 of "hidden_by": expected parttype, got INTEGER`},
		{"correlated range", `{EACH r IN Infront, EACH s IN {EACH x IN Infront: x.front = r.back}: TRUE}`, `unbound tuple variable "r"`},
		{"relation used as a scalar", `{EACH r IN Infront: r.front = Sink}`, `"Sink" is a relation, not a scalar`},
		{"untypeable empty set", `{}`, `cannot infer the type of an empty set expression`},
	} {
		for _, fill := range []struct{ name, stmts string }{
			{"populated", `Stock := {<"a", 3>};`},
			{"empty", `Objects := {<"none">}[nothing]; Infront := Sink;`},
		} {
			t.Run(tc.name+"/"+fill.name, func(t *testing.T) {
				db := openWith(t, pathSchema)
				for _, m := range []string{matrixSchema, `MODULE f;
SELECTOR nothing () FOR Rel: objectrel;
BEGIN EACH r IN Rel: FALSE END nothing;
` + fill.stmts + ` END f.`} {
					if _, err := db.Exec(m); err != nil {
						t.Fatal(err)
					}
				}
				srv := server.New(db, server.Options{})
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(l) //nolint:errcheck // exits with the listener
				defer srv.Close()
				c, err := client.Open(l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				tx, err := db.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer tx.Rollback() //nolint:errcheck
				ctxn, err := c.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer ctxn.Rollback() //nolint:errcheck

				// A statement that would write comes first in every module:
				// all statements are checked before the first one runs.
				show := "MODULE s;\nSink := {<\"x\",\"y\">};\nSHOW " + tc.expr + ";\nEND s."
				assign := "MODULE s;\nSink := {<\"x\",\"y\">};\nSink := " + tc.expr + ";\nEND s."
				var msg string
				for _, ep := range []struct {
					name string
					run  func() error
				}{
					{"DB.Exec SHOW", func() error { _, err := db.ExecContext(ctx, show); return err }},
					{"Tx.Exec SHOW", func() error { _, err := tx.Exec(ctx, show); return err }},
					{"Tx.Exec assignment", func() error { _, err := tx.Exec(ctx, assign); return err }},
					{"Prepare", func() error { _, err := db.Prepare(tc.expr); return err }},
					{"Query", func() error { _, err := db.Query(tc.expr); return err }},
					{"Tx.Query", func() error { _, err := tx.Query(ctx, tc.expr); return err }},
					{"Explain", func() error { _, err := db.Explain(ctx, tc.expr); return err }},
					{"ExplainQuery", func() error { _, err := db.ExplainQuery(ctx, tc.expr); return err }},
				} {
					err := ep.run()
					var te *dbpl.TypeError
					if !errors.As(err, &te) {
						t.Errorf("%s: %v, want a *TypeError", ep.name, err)
						continue
					}
					if !strings.Contains(te.Msg, tc.want) {
						t.Errorf("%s: %q lacks %q", ep.name, te.Msg, tc.want)
					}
					if msg == "" {
						msg = te.Msg
					}
					if te.Msg != msg {
						t.Errorf("%s says %q, DB.Exec said %q", ep.name, te.Msg, msg)
					}
				}
				for _, ep := range []struct {
					name string
					run  func() error
				}{
					{"client.Prepare", func() error { _, err := c.Prepare(tc.expr); return err }},
					{"client Tx.Exec", func() error { _, err := ctxn.Exec(ctx, show); return err }},
				} {
					err := ep.run()
					var re *wire.RemoteError
					if !errors.As(err, &re) || re.Code != wire.CodeType || !strings.Contains(re.Msg, msg) {
						t.Errorf("%s: %v, want wire code %q carrying %q", ep.name, err, wire.CodeType, msg)
					}
				}
				if rel, _ := db.Relation("Sink"); rel.Len() != 0 {
					t.Errorf("a rejected module wrote Sink: %s", rel)
				}
				if rel, _ := tx.Relation("Sink"); rel.Len() != 0 {
					t.Errorf("a rejected module wrote Sink inside the transaction: %s", rel)
				}
			})
		}
	}
}

// TestParamsInSourceOrder: Stmt.Params lists a statement's parameters in the
// order they first appear in its text, wherever they appear — as an argument,
// in a predicate, in a target list — and that is the order arguments bind in.
func TestParamsInSourceOrder(t *testing.T) {
	db := openWith(t, pathSchema)
	if _, err := db.Exec(`MODULE n;
SELECTOR nonempty (X: parttype) FOR Rel: objectrel;
BEGIN EACH r IN Rel: r.part # X END nonempty;
END n.`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src  string
		want string
	}{
		{`{EACH t IN Infront[hidden_by(First)]: t.back = Second}`, "[First Second]"},
		{`{<t.front, Third> OF EACH t IN Infront[hidden_by(First)]: t.back = Second AND t.front = First}`, "[Third First Second]"},
		{`{EACH t IN Infront: t.back = B AND SOME o IN Objects[nonempty(A)] (o.part = B)}`, "[B A]"},
	} {
		st, err := db.Prepare(tc.src)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.src, err)
		}
		if got := fmt.Sprint(st.Params()); got != tc.want {
			t.Errorf("Params(%s) = %s, want %s", tc.src, got, tc.want)
		}
	}
	st, err := db.Prepare(`{EACH t IN Infront[hidden_by(First)]: t.back = Second}`)
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := st.Query(context.Background(), "vase", "table"); err != nil || rel.Len() != 1 {
		t.Errorf("bound in source order: %v, %v", rel, err)
	}
}

// TestBindChecksArgumentsAgainstParameterTypes: a parameter has the type of
// its first context, an argument of another kind is a *TypeError naming the
// parameter and the statement — not a failure inside the evaluation, at a
// position in some declaration — and a parameter only a target list mentions
// is typed by each value bound to it.
func TestBindChecksArgumentsAgainstParameterTypes(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, pathSchema)
	for _, tc := range []struct {
		src  string
		args []any
		want string // substring of the *TypeError; "" means success
		cols string
	}{
		{`Infront[hidden_by(Obj)]`, []any{"vase"}, "", "[front back]"},
		{`Infront[hidden_by(Obj)]`, []any{3}, `statement "Infront[hidden_by(Obj)]": parameter "Obj" is parttype, bound to the INTEGER value 3`, ""},
		{`{EACH r IN Infront: r.front = Who}`, []any{true}, `parameter "Who" is parttype, bound to the BOOLEAN value`, ""},
		{`{<r.front, N + 1> OF EACH r IN Infront: TRUE}`, []any{"one"}, `parameter "N" is INTEGER`, ""},
		{`{<r.front, X> OF EACH r IN Infront: TRUE}`, []any{"x"}, "", "[front X]"},
		{`{<r.front, X> OF EACH r IN Infront: TRUE}`, []any{7}, "", "[front X]"},
		{`{<X> OF EACH r IN Infront: TRUE, <r.front> OF EACH r IN Infront: TRUE}`, []any{"x"}, "", "[X]"},
		{`{<X> OF EACH r IN Infront: TRUE, <r.front> OF EACH r IN Infront: TRUE}`, []any{7}, `branch 2 yields`, ""},
	} {
		st, err := db.Prepare(tc.src)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", tc.src, err)
		}
		rows, err := st.QueryRows(ctx, tc.args...)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s bound to %v: %v", tc.src, tc.args, err)
				continue
			}
			if got := fmt.Sprint(rows.Columns()); got != tc.cols {
				t.Errorf("%s bound to %v: columns %s, want %s", tc.src, tc.args, got, tc.cols)
			}
			rows.Close()
			continue
		}
		var te *dbpl.TypeError
		if !errors.As(err, &te) || !strings.Contains(te.Msg, tc.want) {
			t.Errorf("%s bound to %v: %v, want a *TypeError containing %q", tc.src, tc.args, err, tc.want)
		}
	}
}

// TestStoreIsTheOneSourceOfVariableTypes: a variable the store learns outside
// any module — here from a replayed declaration record, the way a replica
// learns one from the replication stream — types in a later module's selector
// body exactly as it does in a query.
func TestStoreIsTheOneSourceOfVariableTypes(t *testing.T) {
	db := openWith(t, pathSchema)
	typ, _ := db.StoreSnapshot().Type("Infront")
	if err := wal.Apply(db.StoreSnapshot(), []store.Mutation{{Op: store.OpDeclare, Name: "Late", Type: typ}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`MODULE v;
SELECTOR late () FOR Rel: infrontrel;
BEGIN EACH r IN Rel: SOME l IN Late (r.front = l.front) END late;
END v.`); err != nil {
		t.Fatalf("module over a streamed variable: %v", err)
	}
	if _, err := db.Query(`Infront[late]`); err != nil {
		t.Fatal(err)
	}
}

// TestFailedModuleLeavesDeclarationsUntouched: a module that fails
// type-checking must not leave its earlier declarations behind — the
// corrected module would then be rejected as a redefinition, and on a
// long-lived server one typo would poison the namespace until restart.
func TestFailedModuleLeavesDeclarationsUntouched(t *testing.T) {
	db := openWith(t, cadModule)
	if _, err := db.Query(`Infront{ahead}`); err != nil {
		t.Fatal(err)
	}
	plans, views := db.PlanCacheLen(), db.Health().MatViews.Entries
	if plans != 1 || views != 1 {
		t.Fatalf("setup: %d cached plans, %d cached views, want 1 and 1", plans, views)
	}

	const module = `
MODULE fix;
TYPE t = STRING;
TYPE r = RELATION OF RECORD a: t END;
VAR X: r;
SELECTOR pick (V: t) FOR Rel: r;
BEGIN EACH e IN Rel: e.%s = V END pick;
X := {<"one">, <"two">};
SHOW X[pick("one")];
END fix.
`
	if _, err := db.Exec(fmt.Sprintf(module, "nosuch")); err == nil {
		t.Fatal("module with a bad attribute was accepted")
	}
	if got := db.PlanCacheLen(); got != plans {
		t.Errorf("failed module changed the plan cache: %d entries, want %d", got, plans)
	}
	if got := db.Health().MatViews.Entries; got != views {
		t.Errorf("failed module changed the view cache: %d entries, want %d", got, views)
	}
	if _, ok := db.Relation("X"); ok {
		t.Error("failed module declared its variable")
	}
	if _, err := db.Prepare(`Infront[pick("one")]`); err == nil {
		t.Error("failed module left its selector behind")
	}

	out, err := db.Exec(fmt.Sprintf(module, "a"))
	if err != nil {
		t.Fatalf("corrected module rejected: %v", err)
	}
	if want := `X[pick("one")] = {<"one">}`; !strings.Contains(out, want) {
		t.Errorf("SHOW output %q lacks %q", out, want)
	}
}

// TestTxShowRecordsStats: a constructor evaluated by a statement inside a
// transaction reaches LastStats like any other evaluation.
func TestTxShowRecordsStats(t *testing.T) {
	ctx := context.Background()
	db := openWith(t, cadModule)
	if s := db.LastStats(); s.Rounds != 0 {
		t.Fatalf("stats before any evaluation: %+v", s)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	out, err := tx.Exec(ctx, `MODULE s;
Infront := {<"vase","table">, <"table","chair">};
SHOW Infront{ahead};
END s.`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `<"vase", "chair">`) {
		t.Errorf("SHOW output: %s", out)
	}
	if s := db.LastStats(); s.Rounds == 0 || s.Tuples != 3 {
		t.Errorf("transactional SHOW not recorded: %+v", s)
	}
}

// TestConcurrentDeclaringModulesAndQueries executes declaring modules — each
// preceded by a rejected draft of itself — while other goroutines prepare and
// query. A reader must never see part of a module's declarations (its
// selector without its constructor), and once a module has executed, a
// one-shot query must not be served by a plan cached before it, in which the
// module's variable was still classified as a scalar parameter.
func TestConcurrentDeclaringModulesAndQueries(t *testing.T) {
	db := openWith(t, cadModule)
	if _, err := db.Exec(`
MODULE extra;
SELECTOR covers (R: infrontrel) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: SOME x IN R (r.front = x.front) END covers;
END extra.`); err != nil {
		t.Fatal(err)
	}

	const modules = 24
	const readers = 4
	module := func(k int, attr string) string {
		return fmt.Sprintf(`
MODULE m%[1]d;
TYPE t%[1]d = STRING;
VAR W%[1]d: infrontrel;
SELECTOR sel%[1]d (V: t%[1]d) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.%[2]s = V END sel%[1]d;
CONSTRUCTOR con%[1]d FOR Rel: infrontrel (): infrontrel;
BEGIN EACH r IN Rel: TRUE END con%[1]d;
W%[1]d := {<"vase","x">};
END m%[1]d.`, k, attr)
	}

	var executed atomic.Int64 // modules 1..executed have fully executed
	stop := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				done := int(executed.Load())
				k := 1 + (i+r)%modules
				_, err := db.Prepare(fmt.Sprintf(`Infront[sel%[1]d("vase")]{con%[1]d}`, k))
				switch {
				case err == nil:
				case k <= done:
					errc <- fmt.Errorf("module %d executed, yet: %v", k, err)
					return
				case !strings.Contains(err.Error(), fmt.Sprintf(`unknown selector "sel%d"`, k)):
					errc <- fmt.Errorf("partial declaration set of module %d: %v", k, err)
					return
				}
				// Before module k, Wk is a scalar parameter and the argument
				// count is off; that plan must not outlive the module.
				rel, err := db.Query(fmt.Sprintf(`Infront[covers(W%d)]`, k))
				if k <= done && (err != nil || rel.Len() != 1) {
					errc <- fmt.Errorf("stale plan after module %d: %v, %v", k, rel, err)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 1; k <= modules; k++ {
			if _, err := db.Exec(module(k, "nosuch")); err == nil {
				errc <- fmt.Errorf("draft of module %d was accepted", k)
				return
			}
			if _, err := db.Exec(module(k, "front")); err != nil {
				errc <- fmt.Errorf("module %d after its rejected draft: %v", k, err)
				return
			}
			executed.Store(int64(k))
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
