// Volcano-style streaming executor for branch evaluation. A branch
//
//	EACH x1 IN R1, ..., EACH xn IN Rn : P  ->  <target>
//
// compiles into a pipeline of small Open/Next/Close operators —
// scan → filter → hash-join/loop-join → filter → ... → project — exchanging
// batches of at most BatchSize binding rows so per-tuple interface dispatch
// and allocation stay off the hot path. The final dedup stage is the
// set-semantics sink: the result Relation.
//
// A pipeline runs on the calling goroutine; the only parallel evaluation is
// the fixpoint's, which evaluates a round's equations concurrently, each over
// its own environment. Every operator loop polls the environment's context,
// so QueryContext cancellation reaches into a running pipeline.
package eval

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// BatchSize is the number of rows handed between operators per Next call.
const BatchSize = 256

// execRow is a partial binding: one tuple per bound variable, in binding
// order. Rows are immutable once emitted by an operator (extensions copy).
type execRow []value.Tuple

// OpStat is one operator's counters from an evaluation, surfaced through
// EXPLAIN ANALYZE. Counters aggregate over every pipeline the evaluation ran
// (each fixpoint round re-runs the constructor body's pipelines).
type OpStat struct {
	// Op labels the operator and its binding variable, e.g. "hash-join(b)".
	Op string
	// RowsIn and RowsOut count binding rows crossing the operator.
	RowsIn, RowsOut int64
	// Batches counts non-empty output batches.
	Batches int64
}

// ExecStats aggregates per-operator counters across one evaluation. It is
// shared by pointer between the environment and its clones, including those
// of constructor instances a fixpoint round evaluates concurrently, and is
// safe for concurrent use.
type ExecStats struct {
	mu    sync.Mutex
	order []string
	m     map[string]*OpStat
	// plans holds, per branch (*ast.Branch) and per selector application
	// (*ast.Suffix), the first plan the evaluation ran for it.
	plans map[any]*BranchPlan
}

// RecordPlan notes that the evaluation ran plan for its branch or selector
// application; only the first plan per key is kept (fixpoint rounds re-plan
// the same branches over changing cardinalities).
func (s *ExecStats) RecordPlan(plan *BranchPlan) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plans == nil {
		s.plans = make(map[any]*BranchPlan)
	}
	key := any(plan.br)
	if plan.app != nil {
		key = plan.app
	}
	if _, ok := s.plans[key]; !ok {
		s.plans[key] = plan
	}
}

// PlanOf returns the plan the evaluation first ran for br, or nil when it
// never ran the branch.
func (s *ExecStats) PlanOf(br *ast.Branch) *BranchPlan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans[br]
}

// SelectorPath reports the access path the evaluation's recorded plan for the
// selector application app took: indexed when a hash index on the base served
// it, with attr the attribute the selector's parameter probed. ran is false
// when the evaluation never applied app.
func (s *ExecStats) SelectorPath(app *ast.Suffix) (attr string, indexed, ran bool) {
	if s == nil {
		return "", false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, ran := s.plans[app]
	if !ran {
		return "", false, false
	}
	for j, tm := range plan.probeTerms[0] {
		if _, ok := tm.(ast.Param); ok {
			return plan.probeFields[0][j].Attr, true, true
		}
	}
	return "", false, true
}

// SelectorPaths counts the selector applications the evaluation ran by the
// access path their recorded plan took: served from a hash index on the base
// (lookups) or by scanning it (scans).
func (s *ExecStats) SelectorPaths() (lookups, scans int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, plan := range s.plans {
		switch {
		case plan.app == nil:
		case len(plan.probeFields[0]) > 0:
			lookups++
		default:
			scans++
		}
	}
	return lookups, scans
}

// Record merges one operator run into the aggregate.
func (s *ExecStats) Record(op string, rowsIn, rowsOut, batches int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*OpStat)
	}
	st, ok := s.m[op]
	if !ok {
		st = &OpStat{Op: op}
		s.m[op] = st
		s.order = append(s.order, op)
	}
	st.RowsIn += rowsIn
	st.RowsOut += rowsOut
	st.Batches += batches
}

// Ops returns the aggregated operator stats in first-recorded order.
func (s *ExecStats) Ops() []OpStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]OpStat, 0, len(s.order))
	for _, op := range s.order {
		out = append(out, *s.m[op])
	}
	return out
}

// opCounters are one operator instance's local counters, flushed into the
// shared ExecStats when its pipeline finishes.
type opCounters struct {
	label                    string
	rowsIn, rowsOut, batches int64
}

// operator produces batches of binding rows. next returns (nil, nil) at end of
// stream; a batch belongs to its consumer until the consumer's next call to
// next, after which the producer may reuse it. Operators are
// single-goroutine.
type operator interface {
	open() error
	next() ([]execRow, error)
	close()
	counters() *opCounters
}

// tupleOp is the pipeline tail: projected result tuples with precomputed key
// encodings, ready for a set-semantics sink.
type tupleOp interface {
	open() error
	next() ([]relation.Keyed, error)
	close()
}

// rowBinder adapts the execRows of one operator — all of the same width — to
// the bindings the predicate/term evaluators expect. Variables and types are
// fixed per width, so binding a row only copies its tuples; the slack beyond
// the width lets quantifier push/pop inside predicates run without
// allocating.
type rowBinder struct {
	b bindings
}

// newRowBinder binds rows of the first width bindings of pb's plan.
func newRowBinder(pb *preparedBranch, width int) *rowBinder {
	rb := &rowBinder{b: bindings{
		vars:  make([]string, width, width+8),
		types: make([]schema.RecordType, width, width+8),
		tups:  make([]value.Tuple, width, width+8),
	}}
	for k := 0; k < width; k++ {
		rb.b.vars[k] = pb.plan.bind(k).Var
	}
	copy(rb.b.types, pb.elems)
	return rb
}

func (rb *rowBinder) bind(row execRow) *bindings {
	copy(rb.b.tups, row)
	return &rb.b
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

// scanOp produces single-binding rows from a tuple slice (the outer binding's
// scan set). A row is a one-element window onto that slice and the
// batch buffer is reused across calls, so a scan allocates once.
type scanOp struct {
	env    *Env
	tuples []value.Tuple
	pos    int
	batch  []execRow
	c      opCounters
}

func (o *scanOp) open() error           { o.pos = 0; return nil }
func (o *scanOp) close()                {}
func (o *scanOp) counters() *opCounters { return &o.c }

func (o *scanOp) next() ([]execRow, error) {
	if o.pos >= len(o.tuples) {
		return nil, nil
	}
	n := min(BatchSize, len(o.tuples)-o.pos)
	if o.batch == nil {
		o.batch = make([]execRow, n)
	}
	batch := o.batch[:n]
	for i := range batch {
		if err := o.env.cancelled(); err != nil {
			return nil, err
		}
		j := o.pos + i
		batch[i] = o.tuples[j : j+1 : j+1]
	}
	o.pos += n
	o.c.rowsIn += int64(n)
	o.c.rowsOut += int64(n)
	o.c.batches++
	return batch, nil
}

// filterOp drops rows failing any of its predicates (the residual conjuncts
// scheduled at one binding position).
type filterOp struct {
	env    *Env
	binder *rowBinder
	in     operator
	preds  []ast.Pred
	c      opCounters
}

func (o *filterOp) open() error           { return o.in.open() }
func (o *filterOp) close()                { o.in.close() }
func (o *filterOp) counters() *opCounters { return &o.c }

func (o *filterOp) next() ([]execRow, error) {
	for {
		batch, err := o.in.next()
		if err != nil || batch == nil {
			return nil, err
		}
		o.c.rowsIn += int64(len(batch))
		kept := batch[:0]
		for _, row := range batch {
			b := o.binder.bind(row)
			keep := true
			for _, p := range o.preds {
				ok, err := o.env.Pred(p, b)
				if err != nil {
					return nil, err
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				kept = append(kept, row)
			}
		}
		if len(kept) > 0 {
			o.c.rowsOut += int64(len(kept))
			o.c.batches++
			return kept, nil
		}
	}
}

// hashJoinOp extends each input row with the matching tuples of one binding's
// relation, probed through a shared read-only hash index on the equi-join key.
type hashJoinOp struct {
	env    *Env
	binder *rowBinder
	in     operator
	idx    *relation.Index
	terms  []ast.Term
	fields []ast.Field
	elem   schema.RecordType
	c      opCounters

	inBatch []execRow
	inPos   int
	key     value.Tuple
	arena   []value.Tuple
}

func (o *hashJoinOp) open() error {
	o.inBatch, o.inPos = nil, 0
	o.key = make(value.Tuple, len(o.terms))
	return o.in.open()
}
func (o *hashJoinOp) close()                { o.in.close() }
func (o *hashJoinOp) counters() *opCounters { return &o.c }

func (o *hashJoinOp) probeKey(row execRow) (value.Tuple, error) {
	b := o.binder.bind(row)
	for k, tm := range o.terms {
		v, err := o.env.Term(tm, b)
		if err != nil {
			return nil, err
		}
		// A probe against an attribute of a different kind is the dynamic form
		// of a type error, not an empty result.
		attr := o.elem.IndexOf(o.fields[k].Attr)
		if attr >= 0 && o.elem.Attrs[attr].Type.Kind != v.Kind() {
			return nil, fmt.Errorf("%s: comparison of %s attribute %q with %s value",
				o.fields[k].Pos, o.elem.Attrs[attr].Type.Kind,
				o.fields[k].Attr, v.Kind())
		}
		o.key[k] = v
	}
	return o.key, nil
}

// extend appends row+t into the operator's arena, so row extension costs one
// allocation per ~BatchSize rows instead of one per row.
func (o *hashJoinOp) extend(row execRow, t value.Tuple) execRow {
	width := len(row) + 1
	if cap(o.arena)-len(o.arena) < width {
		o.arena = make([]value.Tuple, 0, BatchSize*width)
	}
	start := len(o.arena)
	o.arena = append(o.arena, row...)
	o.arena = append(o.arena, t)
	return o.arena[start:len(o.arena):len(o.arena)]
}

func (o *hashJoinOp) next() ([]execRow, error) {
	var out []execRow
	for {
		if o.inBatch == nil {
			batch, err := o.in.next()
			if err != nil {
				return nil, err
			}
			if batch == nil {
				if len(out) > 0 {
					o.c.rowsOut += int64(len(out))
					o.c.batches++
					return out, nil
				}
				return nil, nil
			}
			o.inBatch, o.inPos = batch, 0
			o.c.rowsIn += int64(len(batch))
		}
		for o.inPos < len(o.inBatch) {
			row := o.inBatch[o.inPos]
			o.inPos++
			if err := o.env.cancelled(); err != nil {
				return nil, err
			}
			key, err := o.probeKey(row)
			if err != nil {
				return nil, err
			}
			for _, t := range o.idx.Probe(key) {
				out = append(out, o.extend(row, t))
			}
			if len(out) >= BatchSize {
				o.c.rowsOut += int64(len(out))
				o.c.batches++
				return out, nil
			}
		}
		o.inBatch = nil
	}
}

// loopJoinOp is the nested-loop fallback when no equi-join conjunct indexes a
// binding: every input row is extended with every tuple of the relation.
type loopJoinOp struct {
	env    *Env
	in     operator
	tuples []value.Tuple
	c      opCounters

	inBatch []execRow
	inPos   int
	tupPos  int
	arena   []value.Tuple
}

func (o *loopJoinOp) open() error {
	o.inBatch, o.inPos, o.tupPos = nil, 0, 0
	return o.in.open()
}
func (o *loopJoinOp) close()                { o.in.close() }
func (o *loopJoinOp) counters() *opCounters { return &o.c }

func (o *loopJoinOp) extend(row execRow, t value.Tuple) execRow {
	width := len(row) + 1
	if cap(o.arena)-len(o.arena) < width {
		o.arena = make([]value.Tuple, 0, BatchSize*width)
	}
	start := len(o.arena)
	o.arena = append(o.arena, row...)
	o.arena = append(o.arena, t)
	return o.arena[start:len(o.arena):len(o.arena)]
}

func (o *loopJoinOp) next() ([]execRow, error) {
	var out []execRow
	for {
		if o.inBatch == nil {
			batch, err := o.in.next()
			if err != nil {
				return nil, err
			}
			if batch == nil {
				if len(out) > 0 {
					o.c.rowsOut += int64(len(out))
					o.c.batches++
					return out, nil
				}
				return nil, nil
			}
			o.inBatch, o.inPos, o.tupPos = batch, 0, 0
			o.c.rowsIn += int64(len(batch))
		}
		for o.inPos < len(o.inBatch) {
			row := o.inBatch[o.inPos]
			for o.tupPos < len(o.tuples) {
				if err := o.env.cancelled(); err != nil {
					return nil, err
				}
				out = append(out, o.extend(row, o.tuples[o.tupPos]))
				o.tupPos++
				if len(out) >= BatchSize {
					o.c.rowsOut += int64(len(out))
					o.c.batches++
					return out, nil
				}
			}
			o.tupPos = 0
			o.inPos++
		}
		o.inBatch = nil
	}
}

// projectOp evaluates the branch target over each full binding row, validates
// arity and element domain (the checks Relation.Insert would otherwise make),
// precomputes the result tuple's key encodings, and optionally drops tuples
// already present in an exclusion set (the semi-naive engine's accumulated
// state), so the downstream merge touches only genuinely new work.
type projectOp struct {
	env    *Env
	binder *rowBinder
	in     operator
	br     *ast.Branch
	// whole is the plan position of the declared first binding, whose tuple a
	// nil target projects.
	whole  int
	rt     schema.RelationType
	proto  *relation.Relation
	except *relation.Relation
	c      opCounters
}

func (o *projectOp) open() error { return o.in.open() }
func (o *projectOp) close()      { o.in.close() }

func (o *projectOp) next() ([]relation.Keyed, error) {
	for {
		batch, err := o.in.next()
		if err != nil || batch == nil {
			return nil, err
		}
		o.c.rowsIn += int64(len(batch))
		out := make([]relation.Keyed, 0, len(batch))
		arity := o.rt.Element.Arity()
		for _, row := range batch {
			var tup value.Tuple
			if o.br.Target == nil {
				tup = row[o.whole]
			} else {
				tup = make(value.Tuple, len(o.br.Target))
				b := o.binder.bind(row)
				for i, tm := range o.br.Target {
					v, err := o.env.Term(tm, b)
					if err != nil {
						return nil, err
					}
					tup[i] = v
				}
			}
			if len(tup) != arity {
				return nil, fmt.Errorf("%s: branch yields arity %d, result type has arity %d",
					o.br.Pos, len(tup), arity)
			}
			if !o.rt.Element.Contains(tup) {
				return nil, fmt.Errorf("relation %s: tuple %s violates element type %s",
					o.rt.Name, tup, o.rt.Element)
			}
			kd := o.proto.KeyedOf(tup)
			if o.except != nil && o.except.ContainsKeyed(kd) {
				continue
			}
			out = append(out, kd)
		}
		if len(out) > 0 {
			o.c.rowsOut += int64(len(out))
			o.c.batches++
			return out, nil
		}
	}
}

// ---------------------------------------------------------------------------
// Pipeline construction and drivers
// ---------------------------------------------------------------------------

// buildBranchPipeline assembles scan → [filter] → (join → [filter])* → project
// over the outer binding's scan set. It returns the pipeline tail and the
// operator counters in pipeline order for post-run aggregation.
func (e *Env) buildBranchPipeline(pb *preparedBranch, except, out *relation.Relation) (tupleOp, []*opCounters) {
	plan, rels := pb.plan, pb.rels
	var counters []*opCounters

	var cur operator = &scanOp{env: e, tuples: pb.outer,
		c: opCounters{label: plan.opLabel("scan", plan.bind(0).Var)}}
	counters = append(counters, cur.counters())
	filter := func(k int) {
		if len(plan.residuals[k]) > 0 {
			cur = &filterOp{env: e, binder: newRowBinder(pb, k+1), in: cur, preds: plan.residuals[k],
				c: opCounters{label: plan.opLabel("filter", plan.bind(k).Var)}}
			counters = append(counters, cur.counters())
		}
	}
	filter(0)
	for i := 1; i < len(rels); i++ {
		v := plan.bind(i).Var
		if pb.indexes[i] != nil {
			cur = &hashJoinOp{env: e, binder: newRowBinder(pb, i), in: cur, idx: pb.indexes[i],
				terms: plan.probeTerms[i], fields: plan.probeFields[i],
				elem: pb.elems[i],
				c:    opCounters{label: plan.opLabel("hash-join", v)}}
		} else {
			cur = &loopJoinOp{env: e, in: cur, tuples: rels[i].Slice(),
				c: opCounters{label: plan.opLabel("loop-join", v)}}
		}
		counters = append(counters, cur.counters())
		filter(i)
	}
	proj := &projectOp{env: e, in: cur, br: plan.br, whole: slices.Index(plan.order, 0),
		rt: out.Type(), proto: out, except: except, c: opCounters{label: plan.opLabel("project", "")}}
	if plan.br.Target != nil {
		proj.binder = newRowBinder(pb, len(rels))
	}
	counters = append(counters, &proj.c)
	return proj, counters
}

// drainPipe runs a pipeline to completion, handing each batch to sink.
func drainPipe(p tupleOp, sink func([]relation.Keyed) error) error {
	if err := p.open(); err != nil {
		p.close()
		return err
	}
	defer p.close()
	for {
		batch, err := p.next()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		if err := sink(batch); err != nil {
			return err
		}
	}
}

// flushCounters folds one pipeline's operator counters into the shared stats.
func flushCounters(stats *ExecStats, counters []*opCounters) {
	for _, c := range counters {
		stats.Record(c.label, c.rowsIn, c.rowsOut, c.batches)
	}
}

// outerTuples resolves the first binding's scan set. When the plan registered
// an index probe on binding 0, its key terms are closed (constants and
// parameters only — tryProbe admits no variables there), so the key is
// evaluated once and the scan shrinks to the matching hash bucket; the
// kind-mismatch check mirrors the join probe's dynamic type error.
func (e *Env) outerTuples(pb *preparedBranch) ([]value.Tuple, error) {
	plan := pb.plan
	if pb.indexes[0] == nil {
		return pb.rels[0].Slice(), nil
	}
	elem := pb.elems[0]
	key := make(value.Tuple, len(plan.probeTerms[0]))
	for k, tm := range plan.probeTerms[0] {
		v, err := e.Term(tm, nil)
		if err != nil {
			return nil, err
		}
		f := plan.probeFields[0][k]
		attr := elem.IndexOf(f.Attr)
		if attr >= 0 && elem.Attrs[attr].Type.Kind != v.Kind() {
			return nil, fmt.Errorf("%s: comparison of %s attribute %q with %s value",
				f.Pos, elem.Attrs[attr].Type.Kind, f.Attr, v.Kind())
		}
		key[k] = v
	}
	return pb.indexes[0].Probe(key), nil
}

// runBranchPipeline executes a prepared branch into out, excluding tuples
// already in except (which may be nil): one pipeline over the outer binding's
// scan set, deduplicated straight into out.
func (e *Env) runBranchPipeline(pb *preparedBranch, out, except *relation.Relation) error {
	pipe, counters := e.buildBranchPipeline(pb, except, out)
	before := out.Len()
	var emitted int64
	err := drainPipe(pipe, func(batch []relation.Keyed) error {
		for _, kd := range batch {
			emitted++
			if err := out.InsertKeyed(kd); err != nil {
				return err
			}
		}
		return nil
	})
	flushCounters(e.ExecStats, counters)
	if err != nil {
		return err
	}
	e.ExecStats.Record(pb.plan.opLabel("dedup", ""), emitted, int64(out.Len()-before), 0)
	return nil
}
