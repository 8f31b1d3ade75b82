package store

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// recObserver records every observer callback in order.
type recObserver struct {
	events []string
	nexts  []*relation.Relation
}

func (o *recObserver) CommittedGrow(name string, tuples []value.Tuple, next *relation.Relation) {
	o.events = append(o.events, fmt.Sprintf("grow %s +%d", name, len(tuples)))
	o.nexts = append(o.nexts, next)
}

func (o *recObserver) CommittedReset(name string, next *relation.Relation) {
	o.events = append(o.events, "reset "+name)
	o.nexts = append(o.nexts, next)
}

func TestObserverInsertGrow(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	obs := &recObserver{}
	db.SetObserver(obs)
	if err := db.Insert("R", pair("a", "b"), pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "grow R +2" {
		t.Fatalf("events = %v, want [grow R +2]", obs.events)
	}
	// The published pointer the observer saw is the store's current value.
	cur, _ := db.Get("R")
	if obs.nexts[0] != cur {
		t.Fatal("observer saw a different pointer than the published relation")
	}
	// An empty insert publishes nothing and must not notify.
	if err := db.Insert("R"); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 {
		t.Fatalf("empty insert notified: %v", obs.events)
	}
}

func TestObserverAssignAndDeclareReset(t *testing.T) {
	db := NewDatabase()
	obs := &recObserver{}
	db.SetObserver(obs)
	_ = db.Declare("R", binT)
	if err := db.Assign("R", relation.MustFromTuples(binT, pair("a", "b"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"reset R", "reset R"}
	if len(obs.events) != 2 || obs.events[0] != want[0] || obs.events[1] != want[1] {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

func TestObserverTxInsertOnlyIsGrow(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	obs := &recObserver{}
	db.SetObserver(obs)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "grow R +2" {
		t.Fatalf("events = %v, want [grow R +2]", obs.events)
	}
}

func TestObserverTxOverwriteIsReset(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	obs := &recObserver{}
	db.SetObserver(obs)

	// Assign inside the transaction: even with a later insert, the commit is
	// a reset — the write is not expressible as a pure growth delta.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Assign("R", relation.MustFromTuples(binT, pair("x", "y"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("y", "z")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "reset R" {
		t.Fatalf("events = %v, want [reset R]", obs.events)
	}
}

func TestObserverTxInsertOverStaleBaseIsReset(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	obs := &recObserver{}
	db.SetObserver(obs)

	// A concurrent writer moves R between Begin and Commit: the transaction's
	// inserts were validated against a superseded base, so the commit must
	// surface as a reset, not a growth delta over the current value.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", pair("a", "b")); err != nil {
		t.Fatal(err)
	}
	obs.events = nil
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) != 1 || obs.events[0] != "reset R" {
		t.Fatalf("events = %v, want [reset R]", obs.events)
	}
}

func TestNameOf(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Declare("S", binT)
	_ = db.Insert("R", pair("a", "b"))
	cur, _ := db.Get("R")
	if name, ok := db.NameOf(cur); !ok || name != "R" {
		t.Fatalf("NameOf(current R) = %q, %v", name, ok)
	}
	// A stale pointer (pre-mutation value) is no longer any variable's value.
	if err := db.Insert("R", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if name, ok := db.NameOf(cur); ok {
		t.Fatalf("NameOf(stale pointer) = %q, want miss", name)
	}
	if _, ok := db.NameOf(relation.New(binT)); ok {
		t.Fatal("NameOf(foreign relation) should miss")
	}
}

func TestReadLockedSeesPublishedState(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Insert("R", pair("a", "b"))
	cur, _ := db.Get("R")
	called := false
	db.ReadLocked(func(get func(string) (*relation.Relation, bool)) {
		called = true
		if r, ok := get("R"); !ok || r != cur {
			t.Error("ReadLocked get does not see the published pointer")
		}
		if _, ok := get("nope"); ok {
			t.Error("ReadLocked get invented a variable")
		}
	})
	if !called {
		t.Fatal("ReadLocked never invoked the callback")
	}
}

// recLogger records the op of every mutation it is handed.
type recLogger struct{ ops []string }

func (l *recLogger) Append(batch []Mutation, _ func(io.Writer) error) error {
	for _, m := range batch {
		switch m.Op {
		case OpInsert:
			l.ops = append(l.ops, fmt.Sprintf("insert %s +%d", m.Name, len(m.Tuples)))
		case OpAssign:
			l.ops = append(l.ops, fmt.Sprintf("assign %s =%d", m.Name, m.Rel.Len()))
		}
	}
	return nil
}

func (l *recLogger) Checkpoint(func(io.Writer) error) error { return nil }

// TestTxCommitLogsWhatItObserves: the log record of each written variable
// follows the same classification as its observer call — a growth delta is
// logged as the inserted tuples, a reset as the full value — in one batch.
func TestTxCommitLogsWhatItObserves(t *testing.T) {
	db := NewDatabase()
	for _, n := range []string{"Grown", "Overtaken", "Overwritten"} {
		_ = db.Declare(n, binT)
		_ = db.Insert(n, pair("a", "b"))
	}
	obs, log := &recObserver{}, &recLogger{}
	db.SetObserver(obs)
	db.SetLogger(log)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Grown", pair("b", "c"), pair("c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("Overtaken", pair("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Assign("Overwritten", relation.MustFromTuples(binT, pair("x", "y"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Overtaken", pair("p", "q")); err != nil {
		t.Fatal(err)
	}
	obs.events, log.ops = nil, nil
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	wantLog := []string{"insert Grown +2", "assign Overtaken =2", "assign Overwritten =1"}
	wantObs := []string{"grow Grown +2", "reset Overtaken", "reset Overwritten"}
	if fmt.Sprint(log.ops) != fmt.Sprint(wantLog) {
		t.Errorf("logged %v, want %v", log.ops, wantLog)
	}
	if fmt.Sprint(obs.events) != fmt.Sprint(wantObs) {
		t.Errorf("observed %v, want %v", obs.events, wantObs)
	}
}
