package relation

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// generation is one live relation of the model test with the plain map it
// must match: key encoding to tuple.
type generation struct {
	rel   *Relation
	model map[string]value.Tuple
	// last is the tuple this generation added most recently, most likely
	// still in its unsealed newest chunk.
	last value.Tuple
}

// modelCase is one relation type of the model test: a random tuple of it and
// a tuple outside its element type.
type modelCase struct {
	typ     schema.RelationType
	tuple   func(*rand.Rand) value.Tuple
	invalid value.Tuple
}

var modelCases = []modelCase{
	{binT, func(rng *rand.Rand) value.Tuple {
		return pair(fmt.Sprintf("s%04d", rng.Intn(3000)), fmt.Sprintf("d%02d", rng.Intn(40)))
	}, value.NewTuple(value.Int(1), value.Str("x"))},
	{keyedT, func(rng *rand.Rand) value.Tuple {
		return value.NewTuple(value.Int(int64(rng.Intn(3000))), value.Str(string(rune('a'+rng.Intn(3)))))
	}, value.NewTuple(value.Str("x"), value.Str("y"))},
}

// fullOf is the full index an index is, or overlays.
func fullOf(idx *Index) *Index {
	if idx.base != nil {
		return idx.base
	}
	return idx
}

// TestRelationMatchesMapModel interleaves every mutation, Clone and index
// operation at random over several live generations of a relation larger
// than minSharedClone — writing to old generations too — and checks every
// generation against its plain-map model, and every chunk's key map against
// its rows, after each step. A delete-heavy phase then deletes from the middle
// of a large unsealed chunk and undoes a batch that fails half-way. It runs
// for a full-key and a partial-key type.
func TestRelationMatchesMapModel(t *testing.T) {
	for _, mc := range modelCases {
		t.Run(mc.typ.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				runModel(t, mc, rand.New(rand.NewSource(seed)))
			}
		})
	}
}

func runModel(t *testing.T, mc modelCase, rng *rand.Rand) {
	t.Helper()
	kp := mc.typ.KeyPositions()
	key := func(tup value.Tuple) string { return tup.Project(kp).Key() }
	first := &generation{rel: New(mc.typ), model: make(map[string]value.Tuple)}
	for len(first.model) < 1100 {
		tup := mc.tuple(rng)
		if _, ok := first.model[key(tup)]; !ok {
			first.rel.Add(tup)
			first.model[key(tup)] = tup
		}
	}
	gens := []*generation{first}
	positions := [][]int{{0}, {1}}

	// insert applies an Insert to g and its model, checking the outcome.
	insert := func(step int, g *generation, tup value.Tuple) error {
		err := g.rel.Insert(tup)
		old, ok := g.model[key(tup)]
		var kc *KeyConflictError
		switch {
		case ok && !old.Equal(tup):
			if !errors.As(err, &kc) {
				t.Fatalf("step %d: Insert(%s) over %s = %v, want a key conflict", step, tup, old, err)
			}
		case err != nil:
			t.Fatalf("step %d: Insert(%s): %v", step, tup, err)
		case !ok:
			g.model[key(tup)], g.last = tup, tup
		}
		return err
	}

	// checkChunks checks that every chunk of g maps each key to the row
	// holding it, and nothing else.
	checkChunks := func(step int, op string, i int, g *generation) {
		for ci, c := range g.rel.chunks {
			if len(c.keys) != len(c.rows) {
				t.Fatalf("step %d (%s): generation %d chunk %d has %d keys for %d rows", step, op, i, ci, len(c.keys), len(c.rows))
			}
			for k, at := range c.keys {
				if at < 0 || at >= len(c.rows) || key(c.rows[at]) != k {
					t.Fatalf("step %d (%s): generation %d chunk %d maps key %q to row %d of %d", step, op, i, ci, k, at, len(c.rows))
				}
			}
		}
	}
	check := func(step int, op string) {
		for i, g := range gens {
			if n := len(g.rel.chunks); n > maxDepth+1 {
				t.Fatalf("step %d (%s): generation %d holds %d chunks", step, op, i, n)
			}
			if g.rel.Len() != len(g.model) {
				t.Fatalf("step %d (%s): generation %d Len %d, model %d", step, op, i, g.rel.Len(), len(g.model))
			}
			checkChunks(step, op, i, g)
			seen := make(map[string]bool, len(g.model))
			g.rel.Each(func(tup value.Tuple) bool {
				k := key(tup)
				if m, ok := g.model[k]; !ok || !m.Equal(tup) || seen[k] {
					t.Fatalf("step %d (%s): generation %d iterates %s, model has %v", step, op, i, tup, m)
				}
				seen[k] = true
				return true
			})
			probes := 0
			for k, tup := range g.model {
				if !g.rel.Contains(tup) {
					t.Fatalf("step %d (%s): generation %d lost %s", step, op, i, tup)
				}
				if got, ok := g.rel.LookupKey(tup.Project(kp)); !ok || got.Key() != tup.Key() {
					t.Fatalf("step %d (%s): generation %d LookupKey(%s) = %s, %v", step, op, i, k, got, ok)
				}
				if probes++; probes == 16 {
					break
				}
			}
			for range 16 {
				tup := mc.tuple(rng)
				m, ok := g.model[key(tup)]
				if want := ok && m.Equal(tup); g.rel.Contains(tup) != want {
					t.Fatalf("step %d (%s): generation %d Contains(%s) != %v", step, op, i, tup, want)
				}
				if _, found := g.rel.LookupKey(tup.Project(kp)); found != ok {
					t.Fatalf("step %d (%s): generation %d LookupKey(%s) found = %v", step, op, i, tup, found)
				}
			}
		}
		for i, a := range gens {
			for j, b := range gens[i+1:] {
				j += i + 1
				want := len(a.model) == len(b.model)
				for k, tup := range a.model {
					if m, ok := b.model[k]; want && (!ok || !m.Equal(tup)) {
						want = false
					}
				}
				if a.rel.Equal(b.rel) != want {
					t.Fatalf("step %d (%s): generations %d and %d Equal = %v", step, op, i, j, !want)
				}
			}
		}
	}

	check(0, "setup")
	for step := 1; step <= 300; step++ {
		g := gens[rng.Intn(len(gens))]
		var op string
		switch p := rng.Intn(100); {
		case p < 20:
			op = "Add"
			tup := mc.tuple(rng)
			if old, ok := g.model[key(tup)]; ok && !old.Equal(tup) {
				continue // Add panics on a key conflict
			}
			if grew := g.rel.Add(tup); grew != (g.model[key(tup)] == nil) {
				t.Fatalf("step %d: Add(%s) reported grew = %v", step, tup, grew)
			}
			if g.model[key(tup)] == nil {
				g.model[key(tup)], g.last = tup, tup
			}
		case p < 35:
			op = "Insert"
			insert(step, g, mc.tuple(rng)) //nolint:errcheck // insert checks the error against the model
		case p < 45:
			op = "InsertAll"
			batch := make([]value.Tuple, 1+rng.Intn(5))
			for i := range batch {
				batch[i] = mc.tuple(rng)
			}
			fail := rng.Intn(2) == 0
			if fail {
				batch[rng.Intn(len(batch))] = mc.invalid
			}
			want := maps.Clone(g.model)
			var wantAdded []value.Tuple
			for _, tup := range batch {
				old, ok := want[key(tup)]
				switch {
				case tup.Equal(mc.invalid) || ok && !old.Equal(tup):
					fail = true
				case !ok:
					want[key(tup)] = tup
					wantAdded = append(wantAdded, tup)
				}
			}
			added, err := g.rel.InsertAll(batch...)
			if fail != (err != nil) || fail != (added == nil) {
				t.Fatalf("step %d: InsertAll(%v) = %v, %v; want failure %v", step, batch, added, err, fail)
			}
			if !fail {
				if len(added) != len(wantAdded) {
					t.Fatalf("step %d: InsertAll added %v, want %v", step, added, wantAdded)
				}
				g.model = want
				if len(added) > 0 {
					g.last = added[len(added)-1]
				}
			}
		case p < 55:
			op = "Delete"
			victim := g.last
			if victim == nil || rng.Intn(2) == 0 {
				for _, tup := range g.model {
					victim = tup
					break
				}
			}
			if rng.Intn(4) == 0 {
				victim = mc.tuple(rng)
			}
			m, ok := g.model[key(victim)]
			want := ok && m.Equal(victim)
			if g.rel.Delete(victim) != want {
				t.Fatalf("step %d: Delete(%s) != %v", step, victim, want)
			}
			if want {
				delete(g.model, key(victim))
			}
			if g.last != nil && g.last.Equal(victim) {
				g.last = nil
			}
		case p < 75:
			op = "Clone"
			if rng.Intn(2) == 0 {
				g = gens[len(gens)-1] // grow one line of clones deep
			}
			c := &generation{rel: g.rel.Clone(), model: maps.Clone(g.model)}
			if c.rel.Indexes() != g.rel.Indexes() {
				t.Fatalf("step %d: clone carries %d indexes valid for its content, source %d",
					step, c.rel.Indexes(), g.rel.Indexes())
			}
			gens = append(gens, c)
			if len(gens) > 4 {
				drop := rng.Intn(len(gens) - 1)
				gens = append(gens[:drop], gens[drop+1:]...)
			}
		case p < 90:
			op = "IndexOn"
			pos := positions[rng.Intn(len(positions))]
			prev, _ := g.rel.carried(appendSig(nil, pos))
			has := g.rel.HasIndexOn(pos)
			idx := g.rel.IndexOn(pos)
			switch {
			case has && fullOf(idx) != fullOf(prev):
				t.Fatalf("step %d: HasIndexOn(%v) reported a carried index, but IndexOn built one", step, pos)
			case !has && idx.base != nil:
				t.Fatalf("step %d: IndexOn(%v) extended an index HasIndexOn did not report", step, pos)
			case !g.rel.HasIndexOn(pos) || g.rel.IndexOn(pos) != idx:
				t.Fatalf("step %d: IndexOn(%v) not memoized", step, pos)
			}
			fresh := BuildIndex(g.rel, pos)
			if idx.Len() != fresh.Len() {
				t.Fatalf("step %d: IndexOn(%v) has %d keys, a fresh build %d", step, pos, idx.Len(), fresh.Len())
			}
			for k, want := range fresh.buckets {
				got := idx.Probe(want[0].Project(pos))
				set := make(map[string]bool, len(got))
				for _, tup := range got {
					set[tup.Key()] = true
				}
				if len(got) != len(want) || len(set) != len(want) {
					t.Fatalf("step %d: IndexOn(%v) bucket %q holds %d tuples, a fresh build %d", step, pos, k, len(got), len(want))
				}
				for _, tup := range want {
					if !set[tup.Key()] {
						t.Fatalf("step %d: IndexOn(%v) bucket %q misses %s", step, pos, k, tup)
					}
				}
			}
		default:
			op = "Equal"
		}
		check(step, op)
	}

	// fresh returns a tuple whose key neither g's model nor taken holds.
	fresh := func(g *generation, taken map[string]bool) value.Tuple {
		for {
			tup := mc.tuple(rng)
			if _, ok := g.model[key(tup)]; !ok && !taken[key(tup)] {
				taken[key(tup)] = true
				return tup
			}
		}
	}
	// Delete-heavy phase: grow the newest generation's unsealed chunk past 100
	// rows, then delete from its middle, so every delete moves a row.
	g := gens[len(gens)-1]
	taken := make(map[string]bool)
	for range 150 {
		tup := fresh(g, taken)
		g.rel.Add(tup)
		g.model[key(tup)] = tup
	}
	tail := g.rel.chunks[len(g.rel.chunks)-1]
	if tail.sealed.Load() || len(tail.rows) < 150 {
		t.Fatalf("newest chunk sealed=%v with %d rows, want an unsealed one of 150 or more", tail.sealed.Load(), len(tail.rows))
	}
	for step := 1; len(tail.rows) > 50; step++ {
		n := len(tail.rows)
		victim := tail.rows[n/3+rng.Intn(n/3)]
		if !g.rel.Delete(victim) {
			t.Fatalf("delete %d: Delete(%s) = false", step, victim)
		}
		delete(g.model, key(victim))
		if g.rel.chunks[len(g.rel.chunks)-1] != tail || len(tail.rows) != n-1 {
			t.Fatalf("delete %d: did not remove in place from the unsealed chunk", step)
		}
		checkChunks(step, "Delete mid-chunk", len(gens)-1, g)
		if step%10 == 0 {
			check(step, "Delete mid-chunk")
		}
	}
	check(0, "Delete mid-chunk")
	// A batch whose invalid tuple comes after ten new ones: the undo takes the
	// ten out of the same chunk again.
	batch := make([]value.Tuple, 0, 21)
	for range 10 {
		batch = append(batch, fresh(g, taken))
	}
	batch = append(batch, mc.invalid)
	for range 10 {
		batch = append(batch, fresh(g, taken))
	}
	n := len(tail.rows)
	if added, err := g.rel.InsertAll(batch...); err == nil || added != nil {
		t.Fatalf("InsertAll with an invalid tuple mid-batch = %v, %v; want an error", added, err)
	}
	if len(tail.rows) != n {
		t.Fatalf("undone InsertAll left %d rows in the chunk, want %d", len(tail.rows), n)
	}
	check(0, "InsertAll undo")
}

// TestRelationConcurrentReaders: goroutines Clone, IndexOn, HasIndexOn and
// iterate one published relation at once — a large one whose newest chunk is
// still unsealed, and a small one Clone copies — and write their own clones.
func TestRelationConcurrentReaders(t *testing.T) {
	large := bigRel(t, 3000)
	large.IndexOn([]int{1})
	large = large.Clone()
	large.Add(pair("open", "tail"))
	small := MustFromTuples(binT, pair("a", "b"), pair("c", "tail"))
	small.IndexOn([]int{1})
	for _, r := range []*Relation{large, small} {
		n := r.Len()
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 40 {
					c := r.Clone()
					c.Add(pair(fmt.Sprintf("w%d", w), fmt.Sprint(i)))
					if c.Len() != n+1 {
						t.Errorf("clone holds %d tuples, want %d", c.Len(), n+1)
					}
					c.IndexOn([]int{0})
					if !r.HasIndexOn([]int{1}) {
						t.Error("published relation lost its index")
					}
					if got := r.IndexOn([]int{1}).Probe(value.NewTuple(value.Str("tail"))); len(got) != 1 {
						t.Errorf("probe: %v", got)
					}
					seen := 0
					r.Each(func(value.Tuple) bool { seen++; return true })
					if seen != n {
						t.Errorf("iterated %d of %d tuples", seen, n)
					}
				}
			}()
		}
		wg.Wait()
	}
}
