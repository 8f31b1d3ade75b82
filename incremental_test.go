package dbpl_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	dbpl "repro"

	"repro/internal/relation"
	"repro/internal/workload"
)

// incWorkload is one metamorphic scenario: a module, its base variable, and
// the queries whose results must stay tuple-identical between a maintained
// database and a from-scratch reference.
type incWorkload struct {
	name    string
	module  string
	baseVar string
	queries []string
}

func incWorkloads() []incWorkload {
	return []incWorkload{
		{
			name: "cad", module: cadModule, baseVar: "Infront",
			queries: []string{
				`Infront{ahead}`,
				`Infront{ahead}[hidden_by("table")]`, // magic-restricted path
				`Infront[hidden_by("n0001")]`,
			},
		},
		{
			name: "bom", module: bomModule, baseVar: "Contains",
			queries: []string{
				`Contains{explode}`,
				`Contains{invert}`,
			},
		},
		{
			name: "samegen", module: samegenModule, baseVar: "Parent",
			queries: []string{
				`Parent{samegen}`,
				`{EACH sg IN Parent{samegen}: sg.left = "n0001"}`,
			},
		},
	}
}

// mutator drives identical randomized mutations into a set of databases and
// tracks the base variable's full tuple set so Assign can shrink it.
type mutator struct {
	rng    *rand.Rand
	nodes  int
	seen   map[string]bool
	tuples []dbpl.Tuple
}

func newMutator(seed int64, initial *dbpl.Relation) *mutator {
	m := &mutator{rng: rand.New(rand.NewSource(seed)), nodes: 24, seen: map[string]bool{}}
	if initial != nil {
		initial.Each(func(t dbpl.Tuple) bool {
			m.remember(t)
			return true
		})
	}
	return m
}

func (m *mutator) remember(t dbpl.Tuple) bool {
	k := t.Key()
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	m.tuples = append(m.tuples, t)
	return true
}

// freshBatch draws 1–3 edges not currently in the base relation.
func (m *mutator) freshBatch() []dbpl.Tuple {
	return m.fresh(1 + m.rng.Intn(3))
}

// fresh draws up to n edges not currently in the base relation.
func (m *mutator) fresh(n int) []dbpl.Tuple {
	var out []dbpl.Tuple
	for ; n > 0; n-- {
		for tries := 0; tries < 50; tries++ {
			t := dbpl.NewTuple(
				dbpl.Str(workload.NodeName(m.rng.Intn(m.nodes))),
				dbpl.Str(workload.NodeName(m.rng.Intn(m.nodes))))
			if m.remember(t) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// shrink drops roughly a quarter of the tuples and returns the survivors.
func (m *mutator) shrink() []dbpl.Tuple {
	kept := m.tuples[:0:0]
	seen := map[string]bool{}
	for _, t := range m.tuples {
		if m.rng.Intn(4) == 0 {
			continue
		}
		kept = append(kept, t)
		seen[t.Key()] = true
	}
	m.tuples, m.seen = kept, seen
	return kept
}

// redraw replaces k random tuples with k fresh ones — the shape of an
// overwrite that re-draws a few edges — and returns the new tuple set.
func (m *mutator) redraw(k int) []dbpl.Tuple {
	for ; k > 0 && len(m.tuples) > 0; k-- {
		j := m.rng.Intn(len(m.tuples))
		delete(m.seen, m.tuples[j].Key())
		m.tuples[j] = m.tuples[len(m.tuples)-1]
		m.tuples = m.tuples[:len(m.tuples)-1]
		m.fresh(1)
	}
	return append([]dbpl.Tuple(nil), m.tuples...)
}

// TestIncrementalMetamorphic interleaves Insert, Assign, and Tx commits —
// growth, shrinking and re-drawing overwrites, bursts of writes with no read
// in between, and reads of a snapshot taken before an overwrite — against the
// example workloads and checks after every mutation that a materialized
// database answers every query tuple-identically to a reference database that
// refixpoints from scratch: the maintained state is never allowed to drift,
// and no write invalidates a view. Runs with serial and with concurrent
// equation evaluation.
func TestIncrementalMetamorphic(t *testing.T) {
	configs := []struct {
		name string
		opts []dbpl.Option
	}{
		{name: "serial", opts: []dbpl.Option{dbpl.WithParallelism(1)}},
		{name: "parallel", opts: parallelOpts(4)},
	}
	for _, cfg := range configs {
		for _, w := range incWorkloads() {
			t.Run(cfg.name+"/"+w.name, func(t *testing.T) {
				mat := openWith(t, w.module, cfg.opts...)
				ref := openWith(t, w.module, append([]dbpl.Option{dbpl.WithoutMaterialization()}, cfg.opts...)...)
				if h := ref.Health(); h.MatViews.Enabled {
					t.Fatal("WithoutMaterialization left the cache enabled")
				}

				initial, _ := mat.StoreSnapshot().Get(w.baseVar)
				m := newMutator(0x1985, initial)
				typ := mustVarType(t, mat, w.baseVar)
				ctx := context.Background()

				check := func(step string) {
					t.Helper()
					for _, q := range w.queries {
						a, err := mat.Query(q)
						if err != nil {
							t.Fatalf("%s: materialized %s: %v", step, q, err)
						}
						b, err := ref.Query(q)
						if err != nil {
							t.Fatalf("%s: reference %s: %v", step, q, err)
						}
						if !a.Equal(b) {
							t.Fatalf("%s: %s diverged: maintained %d tuples, from scratch %d",
								step, q, a.Len(), b.Len())
						}
					}
				}

				insert := func(step string) {
					batch := m.freshBatch()
					for _, db := range []*dbpl.DB{mat, ref} {
						if err := db.Insert(w.baseVar, batch...); err != nil {
							t.Fatalf("%s insert: %v", step, err)
						}
					}
				}
				// assign overwrites the base with tuples, directly or as a
				// Tx.Assign commit.
				assign := func(step string, tuples []dbpl.Tuple, inTx bool) {
					rel := relation.New(typ)
					for _, tup := range tuples {
						rel.Add(tup)
					}
					for _, db := range []*dbpl.DB{mat, ref} {
						if !inTx {
							if err := db.Assign(w.baseVar, rel.Clone()); err != nil {
								t.Fatalf("%s assign: %v", step, err)
							}
							continue
						}
						tx, err := db.Begin(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if err := tx.Assign(w.baseVar, rel.Clone()); err != nil {
							t.Fatalf("%s tx assign: %v", step, err)
						}
						if err := tx.Commit(); err != nil {
							t.Fatalf("%s tx commit: %v", step, err)
						}
					}
				}

				check("initial")
				for op := 0; op < 40; op++ {
					step := fmt.Sprintf("op %d", op)
					switch r := m.rng.Intn(12); {
					case r < 4: // committed growth
						insert(step)
					case r < 5: // transactional growth: one atomic delta batch
						b1, b2 := m.freshBatch(), m.freshBatch()
						for _, db := range []*dbpl.DB{mat, ref} {
							tx, err := db.Begin(ctx)
							if err != nil {
								t.Fatal(err)
							}
							if err := tx.Insert(w.baseVar, b1...); err != nil {
								t.Fatalf("%s tx insert: %v", step, err)
							}
							if err := tx.Insert(w.baseVar, b2...); err != nil {
								t.Fatalf("%s tx insert: %v", step, err)
							}
							if err := tx.Commit(); err != nil {
								t.Fatalf("%s tx commit: %v", step, err)
							}
						}
					case r < 6: // overwrite that shrinks
						assign(step, m.shrink(), false)
					case r < 8: // overwrite that re-draws k edges: remove k, add k
						assign(step, m.redraw(1+m.rng.Intn(3)), r == 7)
					case r < 10: // a burst with no read in between
						assign(step+" burst", m.redraw(2), r == 9)
						insert(step + " burst")
						assign(step+" burst", m.shrink(), false)
					default: // a reader holding a pre-overwrite snapshot
						var txs [2]*dbpl.Tx
						for i, db := range []*dbpl.DB{mat, ref} {
							tx, err := db.Begin(ctx)
							if err != nil {
								t.Fatal(err)
							}
							defer tx.Rollback()
							txs[i] = tx
						}
						assign(step, m.redraw(2), false)
						for _, q := range w.queries {
							a, err := txs[0].Query(ctx, q)
							if err != nil {
								t.Fatalf("%s: materialized snapshot %s: %v", step, q, err)
							}
							b, err := txs[1].Query(ctx, q)
							if err != nil {
								t.Fatalf("%s: reference snapshot %s: %v", step, q, err)
							}
							if !a.Equal(b) {
								t.Fatalf("%s: snapshot %s diverged: %d tuples, from scratch %d", step, q, a.Len(), b.Len())
							}
						}
					}
					check(step)
				}

				mv := mat.Health().MatViews
				if !mv.Enabled {
					t.Fatal("materialization should be on by default")
				}
				// Every entry computed once, then maintained through every
				// write: overwrites included, none invalidates.
				if mv.Maintained == 0 || mv.Invalidations != 0 || mv.Misses != uint64(mv.Entries) {
					t.Errorf("writes were not all maintained: %+v", mv)
				}
			})
		}
	}
}

// TestExplainAnalyzeMatView pins the matview line of EXPLAIN ANALYZE across
// the three read outcomes: a cold read computes and installs (miss), a repeat
// read serves the cached fixpoint (hit), and a read after committed growth
// folds the delta in incrementally (maintained, with delta and round counts).
func TestExplainAnalyzeMatView(t *testing.T) {
	db := openWith(t, cadModule)
	ctx := context.Background()

	expect := func(step, wantLine string) *dbpl.Plan {
		t.Helper()
		p, err := db.ExplainQuery(ctx, `Infront{ahead}`)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !containsLine(p.Text(), wantLine) {
			t.Errorf("%s: plan text missing %q:\n%s", step, wantLine, p.Text())
		}
		return p
	}

	if p := expect("cold", "matview: miss"); p.Analyze.MatView != "miss" {
		t.Errorf("cold MatView=%q, want miss", p.Analyze.MatView)
	}
	if p := expect("warm", "matview: hit"); p.Analyze.MatView != "hit" {
		t.Errorf("warm MatView=%q, want hit", p.Analyze.MatView)
	}
	if err := db.Insert("Infront", dbpl.NewTuple(dbpl.Str("floor"), dbpl.Str("cellar"))); err != nil {
		t.Fatal(err)
	}
	p, err := db.ExplainQuery(ctx, `Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Analyze
	if a.MatView != "maintained" || a.MatViewDelta != 1 || a.MatViewRounds < 1 {
		t.Fatalf("after growth: MatView=%q delta=%d rounds=%d, want maintained delta=1 rounds>=1",
			a.MatView, a.MatViewDelta, a.MatViewRounds)
	}
	wantLine := fmt.Sprintf("matview: maintained delta=+1/-0 rounds=%d", a.MatViewRounds)
	if !containsLine(p.Text(), wantLine) {
		t.Errorf("plan text missing %q:\n%s", wantLine, p.Text())
	}

	// The magic-restricted path consults the same cache: with the full
	// fixpoint materialized, the restricted query is served from it.
	p2, err := db.ExplainQuery(ctx, `Infront{ahead}[hidden_by("table")]`)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Analyze.MatView != "hit" {
		t.Errorf("magic-path MatView=%q, want hit:\n%s", p2.Analyze.MatView, p2.Text())
	}
	// table is ahead of chair, floor, and the freshly inserted cellar.
	if p2.Analyze.Rows != 3 {
		t.Errorf("magic-path rows=%d, want 3", p2.Analyze.Rows)
	}

	// An overwrite re-drawing one edge (chair->floor becomes chair->attic) is
	// absorbed as a signed delta: one tuple added, one removed.
	typ := mustVarType(t, db, "Infront")
	redrawn := relation.New(typ)
	for _, e := range [][2]string{{"vase", "table"}, {"table", "chair"}, {"chair", "attic"}, {"floor", "cellar"}} {
		redrawn.Add(dbpl.NewTuple(dbpl.Str(e[0]), dbpl.Str(e[1])))
	}
	if err := db.Assign("Infront", redrawn); err != nil {
		t.Fatal(err)
	}
	p3, err := db.ExplainQuery(ctx, `Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	a = p3.Analyze
	if a.MatView != "maintained" || a.MatViewDelta != 1 || a.MatViewRemoved != 1 || a.Rows != 7 {
		t.Fatalf("after a re-draw: MatView=%q delta=%d removed=%d rows=%d, want maintained +1/-1 over 7 rows",
			a.MatView, a.MatViewDelta, a.MatViewRemoved, a.Rows)
	}
	wantLine = fmt.Sprintf("matview: maintained delta=+1/-1 rounds=%d", a.MatViewRounds)
	if !containsLine(p3.Text(), wantLine) {
		t.Errorf("plan text missing %q:\n%s", wantLine, p3.Text())
	}
	if js, err := p3.JSON(); err != nil || !strings.Contains(string(js), `"matview_removed": 1`) {
		t.Errorf("plan JSON lacks matview_removed (err %v):\n%s", err, js)
	}
}

// TestExplainAnalyzeNaiveMaxDelta pins that a naive-mode fixpoint reports
// max-delta=n/a — only the semi-naive loop measures per-round deltas, and
// printing 0 would misreport work that was never measured — while the default
// semi-naive mode reports a real number.
func TestExplainAnalyzeNaiveMaxDelta(t *testing.T) {
	naive := openWith(t, cadModule, dbpl.WithMode(dbpl.Naive), dbpl.WithoutMaterialization())
	p, err := naive.ExplainQuery(context.Background(), `Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Text()
	if !strings.Contains(text, " mode=naive ") || !strings.Contains(text, " max-delta=n/a") {
		t.Errorf("naive analyze line should carry max-delta=n/a:\n%s", text)
	}

	semi := openWith(t, cadModule, dbpl.WithoutMaterialization())
	p2, err := semi.ExplainQuery(context.Background(), `Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	text2 := p2.Text()
	if strings.Contains(text2, "max-delta=n/a") || !strings.Contains(text2, " max-delta=") {
		t.Errorf("semi-naive analyze line should carry a measured max-delta:\n%s", text2)
	}
	if p2.Analyze.MaxDelta < 1 {
		t.Errorf("semi-naive MaxDelta=%d, want >= 1", p2.Analyze.MaxDelta)
	}
}

func containsLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// TestIncrementalConcurrentReads streams committed inserts and re-drawing
// overwrites from a writer while reader goroutines query the recursive
// constructor, then does a final equivalence check against a from-scratch
// database holding the same edges. Run under -race this exercises the
// observer/serve/install interleavings, an overwrite replacing the queue a
// read is absorbing among them.
func TestIncrementalConcurrentReads(t *testing.T) {
	mat := openWith(t, cadModule)
	initial, _ := mat.StoreSnapshot().Get("Infront")
	m := newMutator(7, initial)
	typ := mustVarType(t, mat, "Infront")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := mat.Query(`Infront{ahead}`); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		if i%4 != 3 {
			if err := mat.Insert("Infront", m.freshBatch()...); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			continue
		}
		rel := relation.New(typ)
		for _, tup := range m.redraw(2) {
			rel.Add(tup)
		}
		if err := mat.Assign("Infront", rel); err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	ref := openWith(t, cadModule, dbpl.WithoutMaterialization())
	final := relation.New(typ)
	for _, tup := range m.tuples {
		final.Add(tup)
	}
	if err := ref.Assign("Infront", final); err != nil {
		t.Fatal(err)
	}
	a, err := mat.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("after concurrent stream: maintained %d tuples, from scratch %d", a.Len(), b.Len())
	}
}
