package dbpl_test

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	dbpl "repro"

	"repro/internal/relation"
)

// wentWrong matches the evaluator's own name, attribute, kind and arity
// failures — what the static check exists to rule out. Value errors a type
// cannot exclude (division by zero) are not among them.
var wentWrong = regexp.MustCompile(`unknown (relation|selector|constructor)|has no attribute|unbound|` +
	`comparison|non-integer|not type-checked|arity|expects \d+ argument|violates element type|outside tuple scope`)

// FuzzCheckedQueryDoesNotGoWrong: Prepare never panics, whatever the text; it
// gives one verdict per text and declarations, whatever the relations hold and
// whether or not the optimizer runs; and a text it accepts never fails
// evaluation with a name, attribute or kind error — well-typed queries do not
// go wrong. which selects the accept-corpus schema the text is prepared over.
func FuzzCheckedQueryDoesNotGoWrong(f *testing.F) {
	corpus := acceptCorpus()
	for i, tc := range corpus {
		for _, q := range tc.queries {
			f.Add(byte(i), q.src)
		}
	}

	// Per schema, opened on first use: the corpus state, the same with every
	// relation emptied, and the corpus state without the optimizer.
	type stores struct {
		once sync.Once
		dbs  []*dbpl.DB
	}
	opened := make([]stores, len(corpus))
	open := func(t *testing.T, tc corpusCase, empty bool, opts ...dbpl.Option) *dbpl.DB {
		db, err := dbpl.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tc.modules {
			if _, err := db.Exec(m); err != nil {
				t.Fatal(err)
			}
		}
		if tc.setup != nil {
			tc.setup(t, db)
		}
		if st := db.StoreSnapshot(); empty {
			for _, name := range st.Names() {
				typ, _ := st.Type(name)
				if err := db.Assign(name, relation.New(typ)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}

	f.Fuzz(func(t *testing.T, which byte, src string) {
		i := int(which) % len(corpus)
		s := &opened[i]
		s.once.Do(func() {
			s.dbs = []*dbpl.DB{
				open(t, corpus[i], false),
				open(t, corpus[i], true),
				open(t, corpus[i], false, dbpl.WithoutOptimization()),
			}
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		var verdict string
		for k, db := range s.dbs {
			st, err := db.Prepare(src)
			got := "accepted"
			if err != nil {
				got = err.Error()
			}
			if k == 0 {
				verdict = got
			} else if got != verdict {
				t.Fatalf("Prepare(%q): store %d says %q, store 0 said %q", src, k, got, verdict)
			}
			if err != nil {
				continue
			}
			if err := queryWithSomeArgs(ctx, st); err != nil && wentWrong.MatchString(err.Error()) {
				t.Fatalf("%q passed the static check and went wrong on store %d: %v", src, k, err)
			}
		}
	})
}

// queryWithSomeArgs executes st with an argument of the right kind for each
// parameter, found by asking: a bind-time *TypeError names the parameter whose
// argument has the wrong kind. It returns the evaluation's error; a statement
// whose check fails for every kind of some argument did not go wrong.
func queryWithSomeArgs(ctx context.Context, st *dbpl.Stmt) error {
	kinds := []any{"n1", 1, true}
	params := st.Params()
	args, tried := make([]any, len(params)), make([]int, len(params))
	for i := range args {
		args[i] = kinds[0]
	}
	for {
		_, err := st.Query(ctx, args...)
		var te *dbpl.TypeError
		if !errors.As(err, &te) {
			return err
		}
		retry := false
		for i, name := range params {
			if strings.Contains(te.Msg, `: parameter "`+name+`" is `) && tried[i]+1 < len(kinds) {
				tried[i]++
				args[i], retry = kinds[tried[i]], true
				break
			}
		}
		if !retry {
			return nil
		}
	}
}
