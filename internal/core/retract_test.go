package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/relation"
)

// reachSrc is the left-linear closure: a path is extended at its tail, so on
// a cycle every path tuple out of the entry node supports the next one.
const reachSrc = `
CONSTRUCTOR reach FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <a.head, f.back> OF EACH a IN Rel{reach}, EACH f IN Rel: a.tail = f.front
END reach;`

// samegenSrc joins two base occurrences around one recursive occurrence.
const samegenSrc = `
CONSTRUCTOR samegen FOR Rel: infrontrel (): aheadrel;
BEGIN
  <a.front, b.front> OF EACH a IN Rel, EACH b IN Rel: a.back = b.back,
  <a.front, b.front> OF
    EACH a IN Rel, EACH sg IN Rel{samegen}, EACH b IN Rel:
    a.back = sg.head AND sg.tail = b.back
END samegen;`

// posquantSrc reads the base inside a quantifier: resumable for growth, but
// its base occurrence cannot be differentiated for removals.
const posquantSrc = `
CONSTRUCTOR posquant FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, f.back> OF EACH f IN Rel:
    SOME g IN Rel (g.front = f.back)
END posquant;`

// backSrc reads its recursive occurrence inside a quantifier: (b, a) joins
// for an edge a -> b whenever some derived tuple leaves b.
const backSrc = `
CONSTRUCTOR back FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.back, f.front> OF EACH f IN Rel: SOME x IN Rel{back} (x.head = f.back)
END back;`

// parityEvenSrc is a mutually recursive pair: paths of even and odd length,
// two instances over one base.
const parityEvenSrc = `
CONSTRUCTOR even FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, o.tail> OF EACH f IN Rel, EACH o IN Rel{odd}: f.back = o.head
END even;
CONSTRUCTOR odd FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, e.tail> OF EACH f IN Rel, EACH e IN Rel{even}: f.back = e.head
END odd;`

func newRetractEngine(t *testing.T, src string) *Engine {
	t.Helper()
	reg := NewRegistry()
	for _, d := range mustParseModule(t, "MODULE m;\n"+src+"\nEND m.").Decls {
		if _, err := reg.Register(checked(d.(*ast.ConstructorDecl), aheadT)); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	en := NewEngine(reg, eval.NewEnv())
	en.Mode = SemiNaive
	return en
}

func edgeRel(ps ...[2]string) *relation.Relation {
	return relation.MustFromTuples(infrontT, pairs(ps...)...)
}

// resumeTo solves cons over from, resumes to the base to with the signed
// difference, and checks the result against a from-scratch fixpoint over to
// and that the solved state was not mutated. It returns the resumed root.
func resumeTo(t *testing.T, src, cons string, from, to *relation.Relation) *relation.Relation {
	t.Helper()
	ctx := context.Background()
	en := newRetractEngine(t, src)
	sys, err := en.Ground(ctx, cons, from, nil)
	if err != nil {
		t.Fatal(err)
	}
	state, _, err := sys.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	served := sys.Root(state).Clone()
	removed := from.Difference(to)
	resumed, _, err := sys.Resume(ctx, en, state, to, to.Difference(from), removed)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !sys.Root(state).Equal(served) {
		t.Fatal("Resume mutated the solved state")
	}
	want, err := newRetractEngine(t, src).ApplyContext(ctx, cons, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.Root(resumed)
	if !got.Equal(want) {
		t.Fatalf("%s resumed to %v, from scratch %v", cons, got, want)
	}
	// A retraction scans a whole state and hashes the other side of its
	// joins: no index outlives it on a state a cache would keep.
	if n := sys.Root(state).Indexes() + got.Indexes(); !removed.IsEmpty() && n != 0 {
		t.Errorf("%s: maintenance left %d index(es) memoized on a state", cons, n)
	}
	return got
}

// Removing the edge into a cycle must take every path out of the entry node
// with it, although under the left-linear rule each of those tuples is
// derivable from another: they support each other only through the cycle.
func TestRetractCycleEntry(t *testing.T) {
	cycle := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	from := edgeRel(append(cycle, [2]string{"x", "a"})...)
	to := edgeRel(cycle...)
	for _, c := range []struct{ src, name string }{{reachSrc, "reach"}, {aheadSrc, "ahead"}} {
		got := resumeTo(t, c.src, c.name, from, to)
		if got.Len() != 9 {
			t.Errorf("%s: %d tuples after the entry edge went, want the 9 cycle paths: %v", c.name, got.Len(), got)
		}
	}
}

// Removing one side of a diamond over-deletes the path across it, which the
// other side re-derives.
func TestRetractDiamondRederives(t *testing.T) {
	from := edgeRel([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"b", "d"}, [2]string{"c", "d"})
	to := edgeRel([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"c", "d"})
	for _, c := range []struct{ src, name string }{{reachSrc, "reach"}, {aheadSrc, "ahead"}} {
		got := resumeTo(t, c.src, c.name, from, to)
		if !got.Contains(pairs([2]string{"a", "d"})[0]) || got.Contains(pairs([2]string{"b", "d"})[0]) {
			t.Errorf("%s: %v should keep a->d through c and lose b->d", c.name, got)
		}
	}
}

// A system whose base or recursive occurrence sits under a quantifier still
// absorbs growth, but removals make Resume solve it from scratch: the
// over-delete phase cannot see what such an occurrence derived.
func TestRetractNonDifferentiableFallsBack(t *testing.T) {
	from := edgeRel([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	to := edgeRel([2]string{"a", "b"}, [2]string{"c", "d"}, [2]string{"d", "e"})
	for _, c := range []struct{ src, name string }{{posquantSrc, "posquant"}, {backSrc, "back"}} {
		sys, err := newRetractEngine(t, c.src).Ground(context.Background(), c.name, from, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sys.Resumable() || sys.sys.retractable([]bool{true}) {
			t.Fatalf("%s: resumable %v, retractable %v; want growth only", c.name, sys.Resumable(), sys.sys.retractable([]bool{true}))
		}
		resumeTo(t, c.src, c.name, from, to)
	}
}

// Random re-draws — remove k edges, add k — over small graphs, for a right-
// and a left-linear closure, a rule joining a recursive occurrence with two
// base occurrences, and a mutually recursive pair: every Resume equals the
// fixpoint from scratch.
func TestRetractRedrawsMatchFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edge := func() [2]string {
		return [2]string{fmt.Sprintf("n%d", rng.Intn(9)), fmt.Sprintf("n%d", rng.Intn(9))}
	}
	for _, c := range []struct{ src, name string }{{aheadSrc, "ahead"}, {reachSrc, "reach"}, {samegenSrc, "samegen"}, {parityEvenSrc, "even"}} {
		var edges [][2]string
		for len(edges) < 14 {
			edges = append(edges, edge())
		}
		for step := 0; step < 25; step++ {
			from := edgeRel(edges...)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				edges[rng.Intn(len(edges))] = edge()
			}
			resumeTo(t, c.src, c.name, from, edgeRel(edges...))
		}
	}
}
