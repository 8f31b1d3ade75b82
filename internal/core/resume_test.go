package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/value"
)

func groundAhead(t *testing.T, en *Engine, base *relation.Relation) *System {
	t.Helper()
	sys, err := en.Ground(context.Background(), "ahead", base, nil)
	if err != nil {
		t.Fatalf("ground: %v", err)
	}
	return sys
}

// TestGroundSolveMatchesApply checks the grounded-system path computes the
// same fixpoint as the one-shot ApplyContext path.
func TestGroundSolveMatchesApply(t *testing.T) {
	en := newAheadEngine(t, SemiNaive)
	base := relation.New(infrontT)
	for _, p := range pairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"}) {
		base.Add(p)
	}
	sys := groundAhead(t, en, base)
	state, _, err := sys.Solve(context.Background())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want, err := en.ApplyContext(context.Background(), "ahead", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Root(state); !got.Equal(want) {
		t.Fatalf("grounded solve %v != apply %v", got, want)
	}
	if !sys.Resumable() {
		t.Fatal("transitive closure should be resumable")
	}
	if deps := sys.Deps(); len(deps) != 0 {
		t.Fatalf("ahead reads only its base; deps = %v", deps)
	}
}

// TestResumeMatchesFromScratch grows the base in several steps and checks
// each Resume converges to the same closure a fresh fixpoint computes, while
// never mutating the previously served state.
func TestResumeMatchesFromScratch(t *testing.T) {
	en := newAheadEngine(t, SemiNaive)
	ctx := context.Background()

	base := relation.New(infrontT)
	edges := pairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"},
		[2]string{"d", "e"}, [2]string{"e", "f"}, [2]string{"x", "a"},
		[2]string{"f", "g"}, [2]string{"g", "h"},
	)
	for _, p := range edges[:3] {
		base.Add(p)
	}
	sys := groundAhead(t, en, base)
	state, _, err := sys.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for step, batch := range [][]value.Tuple{edges[3:5], edges[5:6], edges[6:]} {
		next := base.Clone()
		delta := relation.New(infrontT)
		for _, tup := range batch {
			next.Add(tup)
			delta.Add(tup)
		}
		served := sys.Root(state)
		before := served.Clone()

		resumed, _, err := sys.Resume(ctx, en, state, next, delta, nil)
		if err != nil {
			t.Fatalf("step %d resume: %v", step, err)
		}
		if !served.Equal(before) {
			t.Fatalf("step %d: Resume mutated the previously served state", step)
		}
		fresh := newAheadEngine(t, SemiNaive)
		want, err := fresh.ApplyContext(ctx, "ahead", next, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Root(resumed); !got.Equal(want) {
			t.Fatalf("step %d: resumed %d tuples, from scratch %d",
				step, got.Len(), want.Len())
		}
		base, state = next, resumed
	}
}

// TestResumeRejectsNaive pins that a system grounded under the naive strategy
// refuses to resume: there is no per-equation delta state to pick up from.
func TestResumeRejectsNaive(t *testing.T) {
	en := newAheadEngine(t, Naive)
	base := relation.New(infrontT)
	base.Add(pairs([2]string{"a", "b"})[0])
	sys := groundAhead(t, en, base)
	if sys.Resumable() {
		t.Fatal("naive-mode system claims to be resumable")
	}
	state, _, err := sys.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Resume(context.Background(), en, state, base, relation.New(infrontT), nil); err == nil {
		t.Fatal("Resume on a naive system should fail")
	}
}

// Resumability classification: base occurrences that a per-occurrence delta
// join cannot express must mark the system non-resumable, and benign shapes
// must not.
func TestResumableClassification(t *testing.T) {
	selectors := `
MODULE s;
SELECTOR small () FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = "a" END small;
END s.`

	cases := []struct {
		name   string
		src    string
		result interface{ String() string }
		want   bool
		reason string
	}{
		{
			name: "plain closure resumable",
			src:  aheadSrc,
			want: true,
		},
		{
			name: "negated base occurrence",
			src: `
CONSTRUCTOR negbase FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, f.back> OF EACH f IN Rel:
    NOT SOME g IN Rel (g.front = f.back)
END negbase;`,
			want:   false,
			reason: "non-monotone position",
		},
		{
			name: "all-quantified base range",
			src: `
CONSTRUCTOR allbase FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, f.back> OF EACH f IN Rel:
    ALL g IN Rel (g.front = g.front)
END allbase;`,
			want:   false,
			reason: "non-monotone position",
		},
		{
			name: "base through selector prefix",
			src: `
CONSTRUCTOR selbase FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, f.back> OF EACH f IN Rel[small]: TRUE
END selbase;`,
			want:   false,
			reason: "derived range",
		},
		{
			name: "positive quantifier over base resumable",
			src: `
CONSTRUCTOR posquant FOR Rel: infrontrel (): aheadrel;
BEGIN
  <f.front, f.back> OF EACH f IN Rel:
    SOME g IN Rel (g.front = f.back)
END posquant;`,
			want: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			if _, err := reg.Register(checked(mustParseConstructor(t, tc.src), aheadT)); err != nil {
				t.Fatalf("register: %v", err)
			}
			env := eval.NewEnv()
			addSelectors(t, env, selectors)
			en := NewEngine(reg, env)
			en.Mode = SemiNaive
			base := relation.New(infrontT)
			for _, p := range pairs([2]string{"a", "b"}, [2]string{"b", "c"}) {
				base.Add(p)
			}
			m := mustParseConstructor(t, tc.src)
			sys, err := en.Ground(context.Background(), m.Name, base, nil)
			if err != nil {
				t.Fatalf("ground: %v", err)
			}
			if got := sys.Resumable(); got != tc.want {
				t.Fatalf("Resumable() = %v, want %v (reason %q)", got, tc.want, sys.sys.nonResumable)
			}
			if !tc.want && !strings.Contains(sys.sys.nonResumable, tc.reason) {
				t.Errorf("nonResumable = %q, want mention of %q", sys.sys.nonResumable, tc.reason)
			}
		})
	}
}
