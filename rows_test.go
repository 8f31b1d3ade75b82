package dbpl

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

const kindsModule = `
MODULE kinds;
TYPE namet = STRING;
TYPE cnt   = INTEGER;
TYPE flag  = BOOLEAN;
TYPE mixed = RELATION OF RECORD name: namet; n: cnt; ok: flag END;
VAR M: mixed;
M := {<"a", 1, TRUE>, <"b", 2, FALSE>};
END kinds.
`

// TestRowsScanAnyAllKinds pins the *any conversions: every scalar kind comes
// back as its Go-native form, never as an internal value type.
func TestRowsScanAnyAllKinds(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(kindsModule); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), `{EACH m IN M: m.name = "a"}`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var name, n, ok any
	if err := rows.Scan(&name, &n, &ok); err != nil {
		t.Fatal(err)
	}
	if s, isStr := name.(string); !isStr || s != "a" {
		t.Fatalf("string column scanned into *any as %T(%v)", name, name)
	}
	if i, isInt := n.(int64); !isInt || i != 1 {
		t.Fatalf("integer column scanned into *any as %T(%v)", n, n)
	}
	if b, isBool := ok.(bool); !isBool || b != true {
		t.Fatalf("boolean column scanned into *any as %T(%v)", ok, ok)
	}
	// A *Value destination still hands out the raw value for callers that
	// want it.
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowsScanAnyInvalidValueErrors ensures an invalid value surfaces as a
// Scan error instead of leaking an unusable internal zero Value through
// *any.
func TestRowsScanAnyInvalidValueErrors(t *testing.T) {
	r := &Rows{cols: []string{"x"}, cur: Tuple{Value{}}}
	var dst any
	err := r.Scan(&dst)
	if err == nil || !strings.Contains(err.Error(), "cannot scan") {
		t.Fatalf("scan of invalid value into *any: got %v, want error", err)
	}
	if dst != nil {
		t.Fatalf("destination written despite error: %v", dst)
	}
	if r.Err() == nil {
		t.Fatal("Scan error not observable through Err after the loop")
	}
}

// TestRowsScanErrorSticky: a Scan failure ends the loop and is reported by
// Err afterwards, database/sql style.
func TestRowsScanErrorSticky(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(kindsModule); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), `{EACH m IN M: TRUE}`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := 0
	for rows.Next() {
		var wrong int
		if err := rows.Scan(&wrong); err == nil {
			t.Fatal("arity-mismatched Scan succeeded")
		}
		seen++
	}
	if seen != 1 {
		t.Fatalf("iteration continued after Scan error: %d rows", seen)
	}
	if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "destination") {
		t.Fatalf("Err after failed Scan: %v", err)
	}
}

// TestRowsErrReportsCancellation: cancelling the query context mid-iteration
// stops the cursor and Err reports the cause.
func TestRowsErrReportsCancellation(t *testing.T) {
	db := mustOpen(t)
	if _, err := db.Exec(kindsModule); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `{EACH m IN M: TRUE}`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next true after cancellation")
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancellation: %v", err)
	}
	// A clean full iteration still reports nil.
	rows2, err := db.QueryContext(context.Background(), `{EACH m IN M: TRUE}`)
	if err != nil {
		t.Fatal(err)
	}
	for rows2.Next() {
	}
	if err := rows2.Err(); err != nil {
		t.Fatalf("Err after clean exhaustion: %v", err)
	}
}

// TestRecordStatsZeroValueStats is the LastStats regression test: an
// evaluation whose stats happen to equal the zero Stats value must still
// replace the previous query's stats — "did anything run" is answered by the
// engine's apply counter, not by comparing against Stats{}.
func TestRecordStatsZeroValueStats(t *testing.T) {
	db := mustOpen(t)
	db.statsMu.Lock()
	db.lastStats = Stats{Rounds: 7, Tuples: 99} // a previous query's stats
	db.statsMu.Unlock()

	en := core.NewEngine(core.NewRegistry(), eval.NewEnv())

	// No evaluation ran: the previous stats stay (the documented contract).
	db.recordStats(en)
	if got := db.LastStats(); got.Rounds != 7 {
		t.Fatalf("stats replaced without any evaluation: %+v", got)
	}

	// An evaluation ran and legitimately produced zero-valued stats
	// (SemiNaive is mode 0): they must be recorded, not skipped as "empty".
	en.Applies.Add(1)
	en.SetLastStats(core.Stats{})
	db.recordStats(en)
	if got := db.LastStats(); got.Rounds != 0 || got.Tuples != 0 {
		t.Fatalf("zero-valued stats skipped, LastStats stale: %+v", got)
	}
}

// TestLastStatsAcrossQueries covers the public contract end to end: a
// constructor query records stats, a cheap non-constructor query leaves them
// alone, and the next constructor query replaces them.
func TestLastStatsAcrossQueries(t *testing.T) {
	db := chainDB(t, 4)
	if _, err := db.Query(`E{tc}`); err != nil {
		t.Fatal(err)
	}
	first := db.LastStats()
	if first.Rounds == 0 {
		t.Fatalf("constructor query recorded no stats: %+v", first)
	}
	if _, err := db.Query(`{EACH e IN E: TRUE}`); err != nil {
		t.Fatal(err)
	}
	if got := db.LastStats(); got != first {
		t.Fatalf("cheap query disturbed LastStats: %+v -> %+v", first, got)
	}
}
