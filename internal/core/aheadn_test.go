package core

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestAheadNSequenceConvergesToAhead reproduces the limit equation of
// section 3.1:
//
//	Infront{ahead} = lim (n->inf) Infront{ahead_n}
//
// The ahead_n family is generated programmatically: ahead_1 copies the base
// relation, and ahead_n extends paths by one step through ahead_{n-1}. On a
// graph of diameter d, ahead_n must equal ahead for all n >= d and be a
// strict subset before that.
func TestAheadNSequenceConvergesToAhead(t *testing.T) {
	const maxN = 12
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, aheadSrc), aheadT)); err != nil {
		t.Fatal(err)
	}
	// ahead_1 .. ahead_maxN.
	for n := 1; n <= maxN; n++ {
		var src string
		if n == 1 {
			src = `
CONSTRUCTOR ahead_1 FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE END ahead_1;`
		} else {
			src = fmt.Sprintf(`
CONSTRUCTOR ahead_%d FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead_%d}: f.back = b.head
END ahead_%d;`, n, n-1, n)
		}
		if _, err := reg.Register(checked(mustParseConstructor(t, src), aheadT)); err != nil {
			t.Fatalf("register ahead_%d: %v", n, err)
		}
	}
	en := NewEngine(reg, eval.NewEnv())

	// Chain of 8 edges: diameter 8.
	base := relation.New(infrontT)
	for _, e := range workload.Chain(8) {
		base.Add(value.NewTuple(
			value.Str(workload.NodeName(e.From)), value.Str(workload.NodeName(e.To))))
	}
	limit, err := en.Apply("ahead", base, nil)
	if err != nil {
		t.Fatal(err)
	}

	prevLen := -1
	for n := 1; n <= maxN; n++ {
		approx, err := en.Apply(fmt.Sprintf("ahead_%d", n), base, nil)
		if err != nil {
			t.Fatalf("ahead_%d: %v", n, err)
		}
		// Monotone: ahead_n ⊆ ahead_{n+1} ⊆ limit.
		if approx.Difference(limit).Len() != 0 {
			t.Fatalf("ahead_%d exceeds the limit", n)
		}
		if approx.Len() < prevLen {
			t.Fatalf("sequence not monotone at n=%d", n)
		}
		prevLen = approx.Len()
		if n < 8 && approx.Equal(limit) {
			t.Fatalf("ahead_%d already equals the limit on a diameter-8 chain", n)
		}
		if n >= 8 && !approx.Equal(limit) {
			t.Fatalf("ahead_%d (n >= diameter) must equal the limit", n)
		}
	}
}

// TestScalarParameterizedConstructor exercises scalar formal parameters:
// a reachability constructor with a fixed source object.
func TestScalarParameterizedConstructor(t *testing.T) {
	const src = `
CONSTRUCTOR reach FOR Rel: infrontrel (Src: parttype): aheadrel;
BEGIN
  EACH r IN Rel: r.front = Src,
  <rc.head, n.back> OF EACH rc IN Rel{reach(Src)}, EACH n IN Rel: rc.tail = n.front
END reach;`
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, src), aheadT)); err != nil {
		t.Fatal(err)
	}
	en := NewEngine(reg, eval.NewEnv())
	base := relation.MustFromTuples(infrontT, pairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"x", "y"},
	)...)
	got, err := en.Apply("reach", base, []eval.Resolved{{Scalar: value.Str("a"), IsScalar: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.MustFromTuples(aheadT, pairs(
		[2]string{"a", "b"}, [2]string{"a", "c"},
	)...)
	if !got.Equal(want) {
		t.Errorf("reach(a): got %s, want %s", got, want)
	}
	// A different scalar argument grounds a different instance.
	got2, err := en.Apply("reach", base, []eval.Resolved{{Scalar: value.Str("x"), IsScalar: true}})
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 1 {
		t.Errorf("reach(x): %s", got2)
	}
}

// TestSelectorInsideConstructorBody checks that selector suffixes inside a
// constructor body are applied against the formal base each evaluation.
func TestSelectorInsideConstructorBody(t *testing.T) {
	const selSrc = `
MODULE m;
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
SELECTOR not_self FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front # r.back END not_self;
END m.
`
	const consSrc = `
CONSTRUCTOR clean FOR Rel: infrontrel (): infrontrel;
BEGIN
  EACH r IN Rel[not_self]: TRUE
END clean;`
	reg := NewRegistry()
	if _, err := reg.Register(checked(mustParseConstructor(t, consSrc), infrontT)); err != nil {
		t.Fatal(err)
	}
	env := eval.NewEnv()
	addSelectors(t, env, selSrc)
	en := NewEngine(reg, env)
	base := relation.MustFromTuples(infrontT, pairs(
		[2]string{"a", "a"}, [2]string{"a", "b"},
	)...)
	got, err := en.Apply("clean", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(value.NewTuple(value.Str("a"), value.Str("b"))) {
		t.Errorf("clean: %s", got)
	}
}
