package fixpoint

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

var binT = schema.RelationType{Element: schema.RecordType{Attrs: []schema.Attribute{
	{Name: "a", Type: schema.StringType()},
	{Name: "b", Type: schema.StringType()},
}}}

func pair(a, b string) value.Tuple { return value.NewTuple(value.Str(a), value.Str(b)) }

// tcEval is a hand-written transitive-closure evaluator over an edge set —
// a minimal fixpoint.Evaluator independent of the calculus machinery.
type tcEval struct {
	edges *relation.Relation
}

func (e *tcEval) N() int                             { return 1 }
func (e *tcEval) NewRelation(int) *relation.Relation { return relation.New(binT) }

func (e *tcEval) EvalFull(_ int, cur []*relation.Relation) (*relation.Relation, error) {
	out := e.edges.Clone()
	e.edges.Each(func(f value.Tuple) bool {
		cur[0].Each(func(g value.Tuple) bool {
			if f[1] == g[0] {
				out.Add(value.NewTuple(f[0], g[1]))
			}
			return true
		})
		return true
	})
	return out, nil
}

func (e *tcEval) EvalIncrement(_ int, cur, delta []*relation.Relation) (*relation.Relation, error) {
	out := relation.New(binT)
	e.edges.Each(func(f value.Tuple) bool {
		delta[0].Each(func(g value.Tuple) bool {
			if t := value.NewTuple(f[0], g[1]); f[1] == g[0] && !cur[0].Contains(t) {
				out.Add(t)
			}
			return true
		})
		return true
	})
	return out, nil
}

func chainEdges(n int) *relation.Relation {
	r := relation.New(binT)
	for i := 0; i < n; i++ {
		r.Add(pair(node(i), node(i+1)))
	}
	return r
}

func node(i int) string { return string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestNaiveAndSemiNaiveAgree(t *testing.T) {
	for _, n := range []int{0, 1, 5, 20} {
		ev := &tcEval{edges: chainEdges(n)}
		naive, sn, err := Naive(ev, Options{})
		if err != nil {
			t.Fatalf("n=%d naive: %v", n, err)
		}
		semi, ss, err := SemiNaive(ev, Options{})
		if err != nil {
			t.Fatalf("n=%d semi: %v", n, err)
		}
		if !naive[0].Equal(semi[0]) {
			t.Fatalf("n=%d: results differ", n)
		}
		want := n * (n + 1) / 2
		if naive[0].Len() != want {
			t.Errorf("n=%d: closure %d, want %d", n, naive[0].Len(), want)
		}
		// Semi-naive should not do more equation evaluations than naive.
		if n > 2 && ss.Evaluations > sn.Evaluations+2 {
			t.Errorf("n=%d: semi-naive evals %d vs naive %d", n, ss.Evaluations, sn.Evaluations)
		}
		if sn.TuplesFinal != want || ss.TuplesFinal != want {
			t.Errorf("n=%d: TuplesFinal %d/%d, want %d", n, sn.TuplesFinal, ss.TuplesFinal, want)
		}
	}
}

// oscillator flips between {} and {x} every round.
type oscillator struct{}

func (oscillator) N() int                             { return 1 }
func (oscillator) NewRelation(int) *relation.Relation { return relation.New(binT) }
func (oscillator) EvalFull(_ int, cur []*relation.Relation) (*relation.Relation, error) {
	out := relation.New(binT)
	if cur[0].IsEmpty() {
		out.Add(pair("x", "y"))
	}
	return out, nil
}
func (oscillator) EvalIncrement(_ int, _, _ []*relation.Relation) (*relation.Relation, error) {
	return nil, nil
}

func TestOscillationDetection(t *testing.T) {
	_, _, err := Naive(oscillator{}, Options{AllowNonMonotonic: true})
	osc, ok := err.(*OscillationError)
	if !ok {
		t.Fatalf("expected OscillationError, got %v", err)
	}
	if osc.Period != 2 {
		t.Errorf("period: %d, want 2", osc.Period)
	}
}

func TestNonMonotonicRejectedByDefault(t *testing.T) {
	_, _, err := Naive(oscillator{}, Options{})
	if _, ok := err.(*NonMonotonicError); !ok {
		t.Fatalf("expected NonMonotonicError, got %v", err)
	}
}

func TestMaxRounds(t *testing.T) {
	ev := &tcEval{edges: chainEdges(50)}
	_, _, err := Naive(ev, Options{MaxRounds: 3})
	if _, ok := err.(*BoundExceededError); !ok {
		t.Fatalf("expected BoundExceededError, got %v", err)
	}
}

// shrinker converges downward: {x} then {} forever — a non-monotonic but
// convergent iteration (allowed only with AllowNonMonotonic).
type shrinker struct{}

func (shrinker) N() int                             { return 1 }
func (shrinker) NewRelation(int) *relation.Relation { return relation.New(binT) }
func (shrinker) EvalFull(_ int, cur []*relation.Relation) (*relation.Relation, error) {
	return relation.New(binT), nil
}
func (shrinker) EvalIncrement(_ int, _, _ []*relation.Relation) (*relation.Relation, error) {
	return nil, nil
}

func TestNonMonotonicConvergence(t *testing.T) {
	state, stats, err := Naive(shrinker{}, Options{AllowNonMonotonic: true})
	if err != nil {
		t.Fatalf("convergent non-monotonic iteration failed: %v", err)
	}
	if !state[0].IsEmpty() || stats.Rounds != 1 {
		t.Errorf("state %v rounds %d", state[0], stats.Rounds)
	}
}

func TestFingerprintOrderIndependence(t *testing.T) {
	a := relation.New(binT)
	a.Add(pair("a", "b"))
	a.Add(pair("c", "d"))
	b := relation.New(binT)
	b.Add(pair("c", "d"))
	b.Add(pair("a", "b"))
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint must be insertion-order independent")
	}
	b.Add(pair("e", "f"))
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("different contents must fingerprint differently")
	}
}
