package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fsx"
	"repro/internal/pagestore"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/value"
)

// TestInsertSemanticsMatrix: Insert means one thing on every engine
// configuration — the engine of a durable session (resident, default pages),
// the same with tiny pages, and the paged engine growing a value it never
// decodes (residency of one relation, another variable touched first, so the
// key check runs against the page-addressed key index). Every case — a fresh tuple, an exact
// duplicate, a key conflict with a stored tuple, a conflict inside the batch,
// a domain violation, one bad tuple in an otherwise good batch, duplicates
// mixed with new tuples, an insert into a variable whose only page is on disk
// — gives the same error (the same text, the same stored tuple as Existing)
// and the same Save bytes in all three, before and after close and reopen; a
// batch that adds nothing appends no log record; and the cold configuration
// never decodes the variable it inserts into once that variable holds more
// than its residency budget of one byte.
func TestInsertSemanticsMatrix(t *testing.T) {
	kvT := schema.RelationType{Name: "kv",
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "k", Type: schema.IntType()},
			{Name: "v", Type: schema.StringType()},
		}}, Key: []string{"k"}}
	kv := func(k int64, v string) value.Tuple { return value.NewTuple(value.Int(k), value.Str(v)) }

	type config struct {
		env   *simEnv
		fs    *fsx.MemFS
		l     *Log
		db    *store.Database
		touch string // variable read before each insert ("" for none)
		cold  bool   // inserts must take the paged engine's cold path
	}
	configs := []*config{
		{env: pagedEnv("resident", pagestore.Config{ResidentBytes: -1})},
		{env: residentSimEnv(), touch: "R"},
		{env: pagedColdSimEnv(), touch: "D", cold: true},
	}
	for _, c := range configs {
		c.fs = fsx.NewMemFS()
		var err error
		if c.l, c.db, err = c.env.open(c.fs); err != nil {
			t.Fatal(err)
		}
		c.db.SetLogger(c.l)
		for _, v := range []string{"D", "R"} {
			if err := c.db.Declare(v, kvT); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.db.Insert("D", kv(0, "decoy")); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, c := range configs {
			_ = c.l.Close()
		}
	})
	// reopen closes and reopens every configuration; with checkpoint it
	// first checkpoints, so the variables' pages are on disk rather than in
	// the WAL tail that reopening replays.
	reopen := func(when string, checkpoint bool) {
		t.Helper()
		for _, c := range configs {
			if checkpoint {
				if err := c.db.Checkpoint(); err != nil {
					t.Fatalf("%s/%s: checkpoint: %v", when, c.env.name, err)
				}
			}
			if err := c.l.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if c.l, c.db, err = c.env.reopen(c.fs); err != nil {
				t.Fatalf("%s/%s: reopen: %v", when, c.env.name, err)
			}
			c.db.SetLogger(c.l)
		}
	}

	cases := []struct {
		name     string
		tuples   []value.Tuple
		onDisk   bool        // insert right after a checkpoint and reopen, touching nothing
		existing value.Tuple // the *KeyConflictError's Existing, if one is wanted
		fails    bool
		logs     bool // appends a log record
		empty    bool // R is empty: it fits any residency budget, so it is grown resident
	}{
		{name: "fresh", tuples: []value.Tuple{kv(1, "a"), kv(2, "b")}, logs: true, empty: true},
		{name: "exact duplicate", tuples: []value.Tuple{kv(1, "a")}},
		{name: "conflict with stored", tuples: []value.Tuple{kv(1, "z")}, existing: kv(1, "a"), fails: true},
		{name: "conflict inside batch", tuples: []value.Tuple{kv(3, "c"), kv(3, "d")}, existing: kv(3, "c"), fails: true},
		{name: "domain violation", tuples: []value.Tuple{value.NewTuple(value.Str("x"), value.Str("y"))}, fails: true},
		{name: "one bad tuple", tuples: []value.Tuple{kv(4, "d"), kv(5, "e"), kv(1, "zz")}, existing: kv(1, "a"), fails: true},
		{name: "duplicates and new", tuples: []value.Tuple{kv(2, "b"), kv(6, "f"), kv(6, "f"), kv(1, "a")}, logs: true},
		{name: "only page on disk", tuples: []value.Tuple{kv(7, "g"), kv(2, "b")}, onDisk: true, logs: true},
		{name: "only page on disk, conflict", tuples: []value.Tuple{kv(2, "x")}, onDisk: true, existing: kv(2, "b"), fails: true},
	}
	for _, tc := range cases {
		var wantErr string
		var wantSave []byte
		if tc.onDisk {
			reopen(tc.name, true)
		}
		for i, c := range configs {
			if c.touch != "" && !tc.onDisk {
				if _, ok := c.db.Get(c.touch); !ok {
					t.Fatalf("%s/%s: touching %s failed", tc.name, c.env.name, c.touch)
				}
			}
			var mats uint64
			if c.env.pager != nil {
				mats = c.env.pager.Stats().Materializations
			}
			tail := c.l.TailRecords()
			err := c.db.Insert("R", tc.tuples...)
			if (err != nil) != tc.fails {
				t.Fatalf("%s/%s: Insert error %v, want failure %v", tc.name, c.env.name, err, tc.fails)
			}
			var kc *relation.KeyConflictError
			if tc.existing != nil && (!errors.As(err, &kc) || !kc.Existing.Equal(tc.existing)) {
				t.Fatalf("%s/%s: Insert error %v, want a key conflict with stored %s", tc.name, c.env.name, err, tc.existing)
			}
			want := 0
			if tc.logs {
				want = 1
			}
			if logged := c.l.TailRecords() - tail; logged != want {
				t.Fatalf("%s/%s: Insert appended %d log records", tc.name, c.env.name, logged)
			}
			if c.cold && !tc.empty {
				_, resident := c.env.pager.Cached("R")
				if st := c.env.pager.Stats(); resident || st.Materializations != mats || st.KeyIndexBuilds == 0 {
					t.Fatalf("%s/%s: Insert did not take the cold path: %+v (%d materializations before)", tc.name, c.env.name, st, mats)
				}
			}
			got := saveBytes(t, c.db)
			if i == 0 {
				wantErr, wantSave = fmt.Sprint(err), got
				continue
			}
			if fmt.Sprint(err) != wantErr {
				t.Fatalf("%s: %s says %q, %s says %q", tc.name, c.env.name, err, configs[0].env.name, wantErr)
			}
			if !bytes.Equal(got, wantSave) {
				t.Fatalf("%s: %s and %s hold different states", tc.name, c.env.name, configs[0].env.name)
			}
		}
		// Close and reopen every configuration: the state survives.
		reopen(tc.name, false)
		for _, c := range configs {
			if got := saveBytes(t, c.db); !bytes.Equal(got, wantSave) {
				t.Fatalf("%s/%s: state changed across close and reopen", tc.name, c.env.name)
			}
		}
	}
	if rel, _ := configs[0].db.Get("R"); rel.Len() != 4 {
		t.Fatalf("R holds %d tuples, want 4", rel.Len())
	}
}
