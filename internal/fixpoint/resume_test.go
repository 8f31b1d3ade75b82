package fixpoint

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// resumeParts splits a chain of total edges into an initial prefix and the
// remainder that arrives later as a delta.
func resumeParts(total, initial int) (sub, full, added *relation.Relation) {
	sub, full, added = relation.New(binT), relation.New(binT), relation.New(binT)
	for i := 0; i < total; i++ {
		tup := pair(node(i), node(i+1))
		full.Add(tup)
		if i < initial {
			sub.Add(tup)
		} else {
			added.Add(tup)
		}
	}
	return sub, full, added
}

// seedDelta computes what the base delta derives against the converged state —
// the round the resuming caller (core.Resume) contributes before handing the
// loop to SemiNaiveResume: for the transitive-closure evaluator, the new
// edges themselves plus their joins with the already-derived closure.
func seedDelta(added, converged *relation.Relation) *relation.Relation {
	out := added.Clone()
	added.Each(func(f value.Tuple) bool {
		converged.Each(func(g value.Tuple) bool {
			if f[1] == g[0] {
				out.Add(value.NewTuple(f[0], g[1]))
			}
			return true
		})
		return true
	})
	return out
}

// TestSemiNaiveResumeMatchesFromScratch grows a chain's edge set after an
// initial fixpoint and requires resuming with the delta to converge to the
// same closure a from-scratch fixpoint over the grown edges computes.
func TestSemiNaiveResumeMatchesFromScratch(t *testing.T) {
	for _, tc := range []struct{ total, initial int }{
		{5, 3}, {20, 10}, {12, 0}, {8, 8}, {1, 0},
	} {
		sub, full, added := resumeParts(tc.total, tc.initial)
		state, _, err := SemiNaive(&tcEval{edges: sub}, Options{})
		if err != nil {
			t.Fatalf("%+v initial: %v", tc, err)
		}
		seed := seedDelta(added, state[0])
		cur := state[0].Clone()
		cur.UnionInto(seed)
		resumed, rs, err := SemiNaiveResume(&tcEval{edges: full},
			[]*relation.Relation{cur}, []*relation.Relation{seed}, []bool{true}, Options{})
		if err != nil {
			t.Fatalf("%+v resume: %v", tc, err)
		}
		scratch, _, err := SemiNaive(&tcEval{edges: full}, Options{})
		if err != nil {
			t.Fatalf("%+v scratch: %v", tc, err)
		}
		if !resumed[0].Equal(scratch[0]) {
			t.Errorf("%+v: resumed %d tuples, from-scratch %d; relations differ",
				tc, resumed[0].Len(), scratch[0].Len())
		}
		if tc.initial < tc.total && rs.MaxDeltaSize == 0 {
			t.Errorf("%+v: MaxDeltaSize not seeded from the incoming delta", tc)
		}
	}
}

// TestSemiNaiveResumeCopyOnWrite marks the input state as shared and checks
// the resumed iteration never mutates it — the invariant that lets a cache
// keep serving the converged state to readers while maintenance runs.
func TestSemiNaiveResumeCopyOnWrite(t *testing.T) {
	sub, full, added := resumeParts(10, 6)
	state, _, err := SemiNaive(&tcEval{edges: sub}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := seedDelta(added, state[0])
	shared := state[0].Clone() // the state a reader may still hold
	shared.UnionInto(seed)
	before := shared.Clone()
	resumed, _, err := SemiNaiveResume(&tcEval{edges: full},
		[]*relation.Relation{shared}, []*relation.Relation{seed}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Equal(before) {
		t.Fatal("SemiNaiveResume mutated a shared input relation")
	}
	if resumed[0] == shared {
		t.Fatal("resumed state aliases the shared input despite growth")
	}
	scratch, _, err := SemiNaive(&tcEval{edges: full}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed[0].Equal(scratch[0]) {
		t.Fatal("copy-on-write resume diverged from the from-scratch fixpoint")
	}
}

// EvalDecrement implements Deleter for the closure: edges joined with the
// newly over-deleted paths.
func (e *tcEval) EvalDecrement(_ int, _, gone, dead []*relation.Relation) (*relation.Relation, error) {
	out := relation.New(binT)
	e.edges.Each(func(f value.Tuple) bool {
		gone[0].Each(func(g value.Tuple) bool {
			if t := value.NewTuple(f[0], g[1]); f[1] == g[0] && !dead[0].Contains(t) {
				out.Add(t)
			}
			return true
		})
		return true
	})
	return out, nil
}

// TestOverDeleteCollectsEveryDependentPath removes the middle edge of a chain:
// seeded with what the edge derives directly, the over-delete rounds must
// collect exactly the paths through it, in a round per edge before it, and
// leave the converged state untouched.
func TestOverDeleteCollectsEveryDependentPath(t *testing.T) {
	ev := &tcEval{edges: chainEdges(5)} // Aa -> Ab -> ... -> Af
	state, _, err := SemiNaive(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := state[0].Clone()
	cut := pair(node(2), node(3))
	seed := seedDelta(relation.MustFromTuples(binT, cut), state[0])
	dead, st, err := OverDelete(ev, state, []*relation.Relation{seed}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(binT)
	for from := 0; from <= 2; from++ {
		for to := 3; to <= 5; to++ {
			want.Add(pair(node(from), node(to)))
		}
	}
	if !dead[0].Equal(want) {
		t.Fatalf("over-deleted %v, want the 9 paths through %v: %v", dead[0], cut, want)
	}
	if st.Rounds != 3 || st.MaxDeltaSize != 3 {
		t.Errorf("rounds=%d max-delta=%d, want 3 and 3", st.Rounds, st.MaxDeltaSize)
	}
	if !state[0].Equal(before) {
		t.Fatal("OverDelete mutated the converged state")
	}
}

// TestSemiNaiveResumeNoDelta resumes with empty deltas and checks the state
// passes through converged and untouched.
func TestSemiNaiveResumeNoDelta(t *testing.T) {
	_, full, _ := resumeParts(6, 6)
	state, _, err := SemiNaive(&tcEval{edges: full}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty := relation.New(binT)
	resumed, rs, err := SemiNaiveResume(&tcEval{edges: full},
		[]*relation.Relation{state[0]}, []*relation.Relation{empty}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed[0] != state[0] {
		t.Fatal("empty-delta resume should return the input state unchanged")
	}
	if rs.Rounds != 0 {
		t.Errorf("rounds=%d, want 0 (already quiescent)", rs.Rounds)
	}
}
