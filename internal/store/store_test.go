package store

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

var binT = schema.RelationType{Name: "bin",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "a", Type: schema.StringType()},
		{Name: "b", Type: schema.StringType()},
	}}}

var keyedT = schema.RelationType{Name: "keyed",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "id", Type: schema.IntType()},
		{Name: "v", Type: schema.StringType()},
	}}, Key: []string{"id"}}

func pair(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

func TestDeclareAssignGet(t *testing.T) {
	db := NewDatabase()
	if err := db.Declare("R", binT); err != nil {
		t.Fatal(err)
	}
	if err := db.Declare("R", binT); err == nil {
		t.Error("duplicate declare must fail")
	}
	rex := relation.MustFromTuples(binT, pair("a", "b"))
	if err := db.Assign("R", rex); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Get("R")
	if !ok || got.Len() != 1 {
		t.Error("get after assign failed")
	}
	if err := db.Assign("Nope", rex); err == nil {
		t.Error("assign to undeclared must fail")
	}
}

func TestKeyConstraintOnAssign(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("K", keyedT)
	// Source relation with whole-tuple semantics can hold key duplicates.
	src := relation.MustFromTuples(
		schema.RelationType{Element: keyedT.Element},
		value.NewTuple(value.Int(1), value.Str("a")),
		value.NewTuple(value.Int(1), value.Str("b")))
	if err := db.Assign("K", src); err == nil {
		t.Error("key conflict on assignment must fail")
	}
}

func TestTransactions(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Assign("R", relation.MustFromTuples(binT, pair("a", "b")))

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", pair("c", "d")); err != nil {
		t.Fatal(err)
	}
	inTx, _ := tx.Get("R")
	if inTx.Len() != 2 {
		t.Error("transaction must see its own writes")
	}
	outside, _ := db.Get("R")
	if outside.Len() != 1 {
		t.Error("uncommitted writes must be invisible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Get("R")
	if after.Len() != 2 {
		t.Error("commit must publish")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit must fail")
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_ = tx2.Insert("R", pair("e", "f"))
	tx2.Rollback()
	final, _ := db.Get("R")
	if final.Len() != 2 {
		t.Error("rollback must discard")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDatabase()
	_ = db.Declare("R", binT)
	_ = db.Declare("K", keyedT)
	subT := schema.RelationType{Name: "sub",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "n", Type: schema.RangeType("small", 1, 9)},
		}}, Key: []string{"n"}}
	_ = db.Declare("S", subT)
	_ = db.Insert("R", pair("a", "b"), pair("c", "d"))
	_ = db.Insert("K", value.NewTuple(value.Int(7), value.Str("x")))
	_ = db.Insert("S", value.NewTuple(value.Int(3)))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R", "K", "S"} {
		a, _ := db.Get(name)
		b, ok := db2.Get(name)
		if !ok || !a.Equal(b) {
			t.Errorf("%s: round trip mismatch", name)
		}
		ta, _ := db.Type(name)
		tb, _ := db2.Type(name)
		if ta.String() != tb.String() {
			t.Errorf("%s: type %s != %s", name, ta, tb)
		}
	}
	// Subrange bounds survive: out-of-range insert still fails after load.
	if err := db2.Insert("S", value.NewTuple(value.Int(10))); err == nil {
		t.Error("subrange must survive the round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a store")); err == nil {
		t.Error("garbage input must fail")
	}
}
