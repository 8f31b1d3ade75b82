package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixpoint"
	"repro/internal/relation"
	"repro/internal/value"
)

// contractEval hands a system to the fixpoint loops and fails the iteration
// when EvalIncrement returns a tuple cur[i] already holds or EvalDecrement one
// dead[i] already holds: the loops take both results unfiltered as the next
// round's delta, so such a tuple would be propagated again, forever on a
// cycle.
type contractEval struct {
	*system
	checked int // tuples returned and checked
}

func (c *contractEval) EvalIncrement(i int, cur, delta []*relation.Relation) (*relation.Relation, error) {
	out, err := c.system.EvalIncrement(i, cur, delta)
	if err != nil {
		return nil, err
	}
	return out, c.check("EvalIncrement", i, out, cur[i])
}

func (c *contractEval) EvalDecrement(i int, state, gone, dead []*relation.Relation) (*relation.Relation, error) {
	out, err := c.system.EvalDecrement(i, state, gone, dead)
	if err != nil {
		return nil, err
	}
	return out, c.check("EvalDecrement", i, out, dead[i])
}

func (c *contractEval) check(method string, i int, out, known *relation.Relation) error {
	c.checked += out.Len()
	var err error
	out.Each(func(t value.Tuple) bool {
		if known.Contains(t) {
			err = fmt.Errorf("%s(%d) returned %v, which its state already holds", method, i, t)
		}
		return err == nil
	})
	return err
}

// TestEvaluatorContract solves the retraction sources over random graphs
// through contractEval, then over-deletes three of each graph's edges as
// System.Resume seeds that phase: every increment and decrement returns only
// tuples its state lacks, and the solve equals a naive one.
func TestEvaluatorContract(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct{ src, name string }{{aheadSrc, "ahead"}, {reachSrc, "reach"}, {samegenSrc, "samegen"}, {parityEvenSrc, "even"}} {
		ev := &contractEval{}
		for g := 0; g < 8; g++ {
			edges := make([][2]string, 14)
			for j := range edges {
				edges[j] = [2]string{fmt.Sprintf("n%d", rng.Intn(9)), fmt.Sprintf("n%d", rng.Intn(9))}
			}
			base := edgeRel(edges...)
			en := newRetractEngine(t, c.src)
			sys, err := en.Ground(ctx, c.name, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			sys.bind(ctx, en)
			ev.system = sys.sys
			state, _, err := fixpoint.SemiNaive(ev, fixpoint.Options{})
			if err != nil {
				t.Fatalf("%s solve: %v", c.name, err)
			}
			naive := newRetractEngine(t, c.src)
			naive.Mode = Naive
			want, err := naive.ApplyContext(ctx, c.name, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Root(state); !got.Equal(want) {
				t.Fatalf("%s: solved %v through the wrapper, %v naively", c.name, got, want)
			}
			removed := edgeRel(edges[:3]...)
			seed := make([]*relation.Relation, len(state))
			for i, inst := range sys.sys.instances {
				seed[i] = relation.New(inst.cons.Result)
				if inst.base != sys.base {
					continue
				}
				if err := sys.sys.evalBaseDelta(inst, state, removed, seed[i], nil, true); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := fixpoint.OverDelete(ev, state, seed, fixpoint.Options{}); err != nil {
				t.Fatalf("%s over-delete: %v", c.name, err)
			}
		}
		if ev.checked == 0 {
			t.Errorf("%s: no increment or decrement returned a tuple to check", c.name)
		}
	}
}
