package dbpl

import (
	"context"

	"repro/internal/core"
)

// Plan returns the statement's compiled plan: the optimizer pass trace, the
// rewritten form that executes, the quantifier ordering, and the chosen
// access paths. The returned plan is a private copy; Analyze is nil (use
// ExplainQuery for execution counters).
func (s *Stmt) Plan() *Plan { return s.plan.clone() }

// Explain compiles a query through the optimizer pass pipeline and returns
// its plan without executing it. Repeated sources hit the plan cache, like
// Query.
func (d *DB) Explain(ctx context.Context, src string) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := d.prepareCached(src)
	if err != nil {
		return nil, err
	}
	return st.Plan(), nil
}

// ExplainQuery executes a query and returns its plan with the Analyze
// counters of that execution filled in (EXPLAIN ANALYZE style): result rows,
// fixpoint rounds and evaluations when a constructor ran, and access-path
// decisions (partition lookups vs. scans). Quantifiers shows the binding
// order and probes that execution ran, in the order of its join operators,
// and AccessPaths the path each selector application took. Parameters bind
// positionally, as in Stmt.Query.
func (d *DB) ExplainQuery(ctx context.Context, src string, args ...any) (*Plan, error) {
	st, err := d.prepareCached(src)
	if err != nil {
		return nil, err
	}
	return st.ExplainQuery(ctx, args...)
}

// ExplainQuery executes the prepared statement and returns its plan with the
// Analyze counters of that execution.
func (s *Stmt) ExplainQuery(ctx context.Context, args ...any) (*Plan, error) {
	var ex execStats
	rel, err := s.exec(ctx, args, &ex)
	if err != nil {
		return nil, err
	}
	p := ex.stmt.Plan()
	p.Quantifiers = quantifiers(ex.rng, &ex.exec)
	p.AccessPaths = accessPaths(ex.rng, ex.selectors, p.Optimized, &ex.exec)
	lookups, scans := ex.exec.SelectorPaths()
	p.Analyze = &ExecInfo{
		Rows:             rel.Len(),
		PartitionLookups: lookups,
		Scans:            scans,
		Parallelism:      s.db.Parallelism(),
	}
	for _, op := range ex.exec.Ops() {
		p.Analyze.Operators = append(p.Analyze.Operators, OperatorStat{
			Op: op.Op, RowsIn: op.RowsIn, RowsOut: op.RowsOut,
			Batches: op.Batches, Workers: 1,
		})
	}
	if ex.engine != (core.Stats{}) {
		p.Analyze.Mode = ex.engine.Mode.String()
		p.Analyze.Instances = ex.engine.Instances
		p.Analyze.Rounds = ex.engine.Rounds
		p.Analyze.Evaluations = ex.engine.Evaluations
		p.Analyze.MaxDelta = ex.engine.MaxDelta
	}
	if ex.viewSet {
		p.Analyze.MatView = ex.view.Outcome
		p.Analyze.MatViewDelta = ex.view.Delta
		p.Analyze.MatViewRemoved = ex.view.Removed
		p.Analyze.MatViewRounds = ex.view.Rounds
	}
	return p, nil
}
