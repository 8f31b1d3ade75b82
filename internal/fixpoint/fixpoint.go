// Package fixpoint implements the least-fixpoint iteration strategies of
// section 3 of the paper over systems of mutually recursive relation-valued
// equations
//
//	apply_i^(k+1) = g_i(apply_0^k, ..., apply_l^k),   apply_i^0 = {}
//
// whose limits define the values of constructed relations (section 3.2,
// citing [Tars 55] and [AhUl 79]). Two strategies are provided:
//
//   - Naive: the paper's REPEAT ... UNTIL Ahead = Oldahead loop, recomputing
//     every equation from the full previous state each round. For monotonic
//     systems the state grows to the least fixpoint; for non-monotonic
//     systems (admitted only when Options.AllowNonMonotonic is set, cf. the
//     strange example of section 3.3) the iteration may still converge, and
//     oscillation (the nonsense example) is detected by state fingerprinting.
//
//   - SemiNaive: the differential evaluation used by deductive databases;
//     correct only for monotonic systems, which the positivity constraint of
//     section 3.3 guarantees syntactically. Each round keeps only the tuples
//     the state lacks; the Evaluator drops the others as it derives them
//     (EvalIncrement's contract), so no round's result is filtered twice.
package fixpoint

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/relation"
	"repro/internal/value"
)

// Evaluator abstracts one system of equations. Indices 0..N()-1 identify the
// equations (constructor application instances in package core).
type Evaluator interface {
	// N returns the number of equations in the system.
	N() int
	// NewRelation returns a fresh empty relation of equation i's result type.
	NewRelation(i int) *relation.Relation
	// EvalFull computes g_i over the full current state.
	EvalFull(i int, cur []*relation.Relation) (*relation.Relation, error)
	// EvalIncrement computes the tuples derivable for equation i when the
	// state grew by delta (per equation) that cur[i] lacks, and only those:
	// the semi-naive loops take its result unfiltered as the next delta, as
	// OverDelete takes Deleter.EvalDecrement's.
	EvalIncrement(i int, cur, delta []*relation.Relation) (*relation.Relation, error)
}

// Options bounds and configures an iteration.
type Options struct {
	// MaxRounds caps iteration rounds; 0 means no explicit bound beyond
	// oscillation detection. The paper's positivity constraint guarantees
	// termination, so the bound exists for the non-monotonic escape hatch.
	MaxRounds int
	// AllowNonMonotonic permits Naive iteration over systems that may
	// shrink between rounds (section 3.3's strange constructor). When
	// false, a shrinking state is reported as an error.
	AllowNonMonotonic bool
	// Ctx, when non-nil, is checked between rounds so that runaway
	// iterations can be cancelled; the iteration returns ctx.Err().
	Ctx context.Context
	// Parallelism bounds concurrent equation evaluations within a round;
	// 0 or 1 evaluates equations serially. This is the system's only parallel
	// evaluation: an equation's pipelines run on the goroutine evaluating it. Rounds
	// themselves are always a barrier: round k+1 starts only after every
	// equation of round k is done, so results are identical to serial
	// iteration (set semantics).
	Parallelism int
}

// evalEach runs f(i) for every equation index in [0, n), fanning out across
// min(n, Parallelism) workers when parallelism is enabled. f must write its
// result only to per-index slots. The returned error is the lowest-index
// failure so that parallel runs report the same error a serial sweep would.
func (o Options) evalEach(n int, f func(i int) error) error {
	workers := o.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cancelled returns the context error, if any, at a round boundary.
func (o Options) cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Stats reports the work done by an iteration.
type Stats struct {
	Rounds       int // iterations of the outer loop
	Evaluations  int // equation evaluations (full or incremental)
	TuplesFinal  int // total tuples in the final state
	MaxDeltaSize int // largest per-round delta (SemiNaive only)
}

// OscillationError reports a non-converging non-monotonic iteration: the
// state revisited an earlier configuration without reaching a fixpoint, as in
// the nonsense constructor of section 3.3 whose iteration alternates
// {} -> Rel -> {} -> Rel -> ...
type OscillationError struct {
	Period int // rounds between the repeated states
	Rounds int // rounds executed before detection
}

// Error implements error.
func (e *OscillationError) Error() string {
	return fmt.Sprintf("fixpoint: iteration oscillates with period %d (detected after %d rounds); no limit exists",
		e.Period, e.Rounds)
}

// NonMonotonicError reports a shrinking state when AllowNonMonotonic is off.
type NonMonotonicError struct {
	Equation int
	Round    int
}

// Error implements error.
func (e *NonMonotonicError) Error() string {
	return fmt.Sprintf("fixpoint: equation %d shrank in round %d but the system was declared monotonic",
		e.Equation, e.Round)
}

// BoundExceededError reports that MaxRounds was hit before convergence.
type BoundExceededError struct {
	MaxRounds int
}

// Error implements error.
func (e *BoundExceededError) Error() string {
	return fmt.Sprintf("fixpoint: no convergence within %d rounds", e.MaxRounds)
}

// Naive iterates the full system until two successive states are equal —
// the executable form of the REPEAT loops in section 3.1.
func Naive(ev Evaluator, opts Options) ([]*relation.Relation, Stats, error) {
	n := ev.N()
	cur := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		cur[i] = ev.NewRelation(i)
	}
	var stats Stats
	seen := map[string]int{fingerprintState(cur): 0}

	for {
		if err := opts.cancelled(); err != nil {
			return cur, stats, err
		}
		if opts.MaxRounds > 0 && stats.Rounds >= opts.MaxRounds {
			return cur, stats, &BoundExceededError{MaxRounds: opts.MaxRounds}
		}
		stats.Rounds++
		next := make([]*relation.Relation, n)
		if err := opts.evalEach(n, func(i int) error {
			out, err := ev.EvalFull(i, cur)
			if err != nil {
				return err
			}
			next[i] = out
			return nil
		}); err != nil {
			return nil, stats, err
		}
		stats.Evaluations += n
		changed := false
		for i := 0; i < n; i++ {
			if !next[i].Equal(cur[i]) {
				changed = true
				if !opts.AllowNonMonotonic && cur[i].Difference(next[i]).Len() > 0 {
					// Some previously derived tuple vanished: g is not
					// monotonic although it was declared to be.
					return nil, stats, &NonMonotonicError{Equation: i, Round: stats.Rounds}
				}
			}
		}
		if !changed {
			stats.TuplesFinal = totalLen(cur)
			return cur, stats, nil
		}
		cur = next
		fp := fingerprintState(cur)
		if prev, ok := seen[fp]; ok {
			return nil, stats, &OscillationError{Period: stats.Rounds - prev, Rounds: stats.Rounds}
		}
		seen[fp] = stats.Rounds
	}
}

// SemiNaive iterates differentially: after seeding with g_i({}), each round
// derives new tuples only from the previous round's deltas. The system must
// be monotonic (positivity constraint, section 3.3).
func SemiNaive(ev Evaluator, opts Options) ([]*relation.Relation, Stats, error) {
	n := ev.N()
	cur := make([]*relation.Relation, n)
	delta := make([]*relation.Relation, n)
	empty := make([]*relation.Relation, n)
	var stats Stats
	for i := 0; i < n; i++ {
		empty[i] = ev.NewRelation(i)
	}
	// Round 0: g_i over the empty state.
	if err := opts.cancelled(); err != nil {
		return nil, stats, err
	}
	stats.Rounds++
	if err := opts.evalEach(n, func(i int) error {
		out, err := ev.EvalFull(i, empty)
		if err != nil {
			return err
		}
		cur[i] = out
		delta[i] = out.Clone()
		return nil
	}); err != nil {
		return nil, stats, err
	}
	stats.Evaluations += n
	return semiNaiveLoop(opts, cur, delta, nil, stats, ev.EvalIncrement)
}

// SemiNaiveResume continues a semi-naive iteration from a known state: cur is
// the accumulated per-equation state (which must already include delta) and
// delta the tuples newly added to it that have not yet been propagated —
// exactly the invariant SemiNaive maintains between rounds. Materialized-view
// maintenance uses it to absorb a base-relation delta without refixpointing.
//
// Relations in cur whose owned flag is false are never mutated: a slot that
// grows is replaced by a clone first (copy-on-write), so callers may keep
// serving the input state to concurrent readers while the resumed iteration
// runs. A nil owned treats every slot as shared.
func SemiNaiveResume(ev Evaluator, cur, delta []*relation.Relation, owned []bool, opts Options) ([]*relation.Relation, Stats, error) {
	n := ev.N()
	state := make([]*relation.Relation, n)
	copy(state, cur)
	own := make([]bool, n)
	if owned != nil {
		copy(own, owned)
	}
	return semiNaiveLoop(opts, state, slices.Clone(delta), own, Stats{}, ev.EvalIncrement)
}

// Deleter differentiates a converged system for deletion: EvalDecrement
// returns the tuples of equation i that have a derivation from state using at
// least one tuple of gone (per equation), omitting those already in dead[i].
// Over a converged state of a monotone system every such tuple is in state.
type Deleter interface {
	EvalDecrement(i int, state, gone, dead []*relation.Relation) (*relation.Relation, error)
}

// OverDelete is the over-delete phase of delete-and-rederive (Gupta, Mumick
// and Subrahmanian, SIGMOD '93) over a converged state of a monotone system:
// starting from seed — per equation, the tuples that lost a derivation
// directly — semi-naive rounds collect every tuple with some derivation that
// uses an already over-deleted tuple, until a round finds none. The result is
// a superset of what the change really deletes; the caller re-derives the
// part that still has a derivation from the survivors. The seed relations
// become the returned ones and grow in place; state is only read.
func OverDelete(ev Deleter, state, seed []*relation.Relation, opts Options) ([]*relation.Relation, Stats, error) {
	return semiNaiveLoop(opts, seed, slices.Clone(seed), nil, Stats{}, func(i int, dead, gone []*relation.Relation) (*relation.Relation, error) {
		return ev.EvalDecrement(i, state, gone, dead)
	})
}

// semiNaiveLoop is the shared differential iteration: each round,
// step(i, acc, delta) returns what equation i derives from the previous
// round's deltas that acc[i] lacks — step's contract, which the loop does not
// check again. That joins acc[i] and is the next round's delta, until a round
// derives nothing. owned[i] false marks acc[i] as shared with callers; it is
// replaced by its clone, in acc itself, before its first growth. A nil owned
// means every slot may be mutated in place.
func semiNaiveLoop(opts Options, acc, delta []*relation.Relation, owned []bool, stats Stats, step func(i int, acc, delta []*relation.Relation) (*relation.Relation, error)) ([]*relation.Relation, Stats, error) {
	n := len(acc)
	for {
		quiet := true
		for i := 0; i < n; i++ {
			stats.MaxDeltaSize = max(stats.MaxDeltaSize, delta[i].Len())
			quiet = quiet && delta[i].IsEmpty()
		}
		if quiet {
			stats.TuplesFinal = totalLen(acc)
			return acc, stats, nil
		}
		if err := opts.cancelled(); err != nil {
			return acc, stats, err
		}
		if opts.MaxRounds > 0 && stats.Rounds >= opts.MaxRounds {
			return acc, stats, &BoundExceededError{MaxRounds: opts.MaxRounds}
		}
		stats.Rounds++
		next := make([]*relation.Relation, n)
		if err := opts.evalEach(n, func(i int) error {
			var err error
			next[i], err = step(i, acc, delta)
			return err
		}); err != nil {
			return nil, stats, err
		}
		stats.Evaluations += n
		for i := 0; i < n; i++ {
			if next[i].Len() > 0 && owned != nil && !owned[i] {
				acc[i] = acc[i].Clone()
				owned[i] = true
			}
			acc[i].UnionInto(next[i])
			delta[i] = next[i]
		}
	}
}

func totalLen(rels []*relation.Relation) int {
	total := 0
	for _, r := range rels {
		total += r.Len()
	}
	return total
}

// fingerprintState hashes the whole system state, order-independently per
// relation, for oscillation detection.
func fingerprintState(rels []*relation.Relation) string {
	h := sha256.New()
	for _, r := range rels {
		h.Write([]byte{0xfe})
		h.Write([]byte(Fingerprint(r)))
	}
	return string(h.Sum(nil))
}

// Fingerprint returns a content hash of a relation (order-independent).
// Exposed for package core's application-instance identity keys.
func Fingerprint(r *relation.Relation) string {
	keys := make([]string, 0, r.Len())
	r.Each(func(t value.Tuple) bool {
		keys = append(keys, t.Key())
		return true
	})
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0xff})
	}
	return string(h.Sum(nil))
}
