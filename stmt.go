package dbpl

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/optimizer"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
)

// Stmt is a prepared query: Prepare parses the source, type-checks it against
// the current declarations and the store's relation variables
// (typecheck.Checker.CheckQuery — the check a module's SHOW gets), and lowers
// it through the optimizer pass pipeline (flatten, selection pushdown, magic
// sets, nest) exactly once. The resulting compiled plan, inspectable via Plan,
// is what every Query call executes — concurrently, if desired — against a
// snapshot of the database's current state.
//
// A scalar name no declaration binds is a parameter of the statement, typed
// by its first context in the query: the formal it is passed to, the other
// side of its comparison, INTEGER under arithmetic. Parameters are bound
// positionally on each Query call, in order of first appearance in the source
// (Params), and each argument's kind is checked against its parameter's type.
// A parameter no context types — one that occurs only in target lists — takes
// the type of the value bound to it: such a statement is checked and planned
// again on every execution.
//
// Planning is split across the statement lifecycle: logical rewrites run once
// at Prepare time; binding order and probe keys are decided per execution,
// from the cardinalities of the snapshot it runs against (ExplainQuery shows
// the plan that ran); physical structures are per-value. Equi-join probe indexes
// and selector access paths are the same hash indexes, built on first use and
// memoized on the relation values of the execution's snapshot, so repeated
// executions share them until the underlying variable is reassigned (an
// insert's next value inherits them as an overlay).
//
// Close invalidates only this handle; it does not touch the DB's plan cache,
// which holds its own statements (keyed by source text, evicted by LRU and
// cleared whenever declarations change).
type Stmt struct {
	db  *DB
	src string
	// rng is the parsed form, typed by the checker: every query is a range
	// expression, a set expression being the range whose head is that
	// sub-expression. typ is its relation type and params its scalar
	// parameters in source order; open reports a parameter only a bound value
	// types.
	rng    *ast.Range
	typ    schema.RelationType
	params []typecheck.Param
	open   bool

	// execRng is the pipeline's rewritten form, executed by Query. magic, when
	// non-nil, replaces the head of execRng with a magic-restricted fixpoint
	// over magicReg.
	execRng  *ast.Range
	magic    *optimizer.MagicPlan
	magicReg *core.Registry
	plan     *Plan

	closed atomic.Bool
}

// Prepare parses, type-checks, and plans a query — a range expression such as
// `Infront[hidden_by(Obj)]{ahead}` or a set expression such as
// `{EACH r IN Infront: TRUE}` — for repeated execution. A query that does not
// type is rejected here, with a *TypeError, whatever the relations hold.
func (d *DB) Prepare(src string) (*Stmt, error) { return d.prepare(src, nil) }

// prepare is Prepare with some parameters already typed: the open parameters
// of a statement being bound.
func (d *DB) prepare(src string, given []typecheck.Param) (*Stmt, error) {
	r, err := parser.ParseRange(src)
	if err != nil {
		return nil, wrapErr(err)
	}
	chk, decls := d.checker()
	s := &Stmt{db: d, src: src, rng: r}
	if s.typ, s.params, err = chk.CheckQuery(r, given); err != nil {
		return nil, err
	}
	for _, p := range s.params {
		s.open = s.open || p.Type.Kind == value.KindInvalid
	}
	s.compile(chk, decls)
	return s, nil
}

// compile lowers the parsed query through the optimizer pass pipeline over a
// private deep copy of the AST and records the resulting plan. A rewritten
// form is type-checked like the parsed one, which also types the ranges and
// set expressions the passes built. Pass failures never fail preparation —
// every pass is an optimization, not a semantic requirement — they are
// recorded in the plan's trace instead, and a rewritten form that does not
// type as the parsed one does is dropped for the query as written.
func (s *Stmt) compile(chk *typecheck.Checker, decls *declSnapshot) {
	d := s.db
	q := &optimizer.Query{Rng: ast.CopyRange(s.rng)}
	var traces []optimizer.Trace
	if !d.noOptimize {
		pctx := &optimizer.Context{
			Selectors:    decls.selectors,
			Constructors: decls.checker.Constructors,
			Recursive:    decls.recursive,
			VarType:      chk.VarType,
		}
		traces = optimizer.RunPipeline(optimizer.DefaultPipeline(), q, pctx)
		if slices.ContainsFunc(traces, func(t optimizer.Trace) bool { return t.Applied }) {
			if err := s.checkRewritten(chk, q.Rng); err != nil {
				traces = append(traces, optimizer.Trace{
					Pass: "typecheck", Detail: "error: rewritten form dropped, the query runs as written: " + err.Error()})
				q = &optimizer.Query{Rng: ast.CopyRange(s.rng)}
			}
		}
	}
	s.execRng, s.magic = q.Rng, q.Magic

	if s.magic != nil {
		reg, err := magicRegistry(s.magic.Bundle)
		if err != nil {
			// A restricted system that does not check or register (e.g. a
			// transformed rule tripping the positivity check) demotes the
			// query to unrestricted execution; the trace keeps the reason
			// visible in EXPLAIN.
			traces = append(traces, optimizer.Trace{
				Pass: "magic", Detail: "error: registering restricted system: " + err.Error()})
			s.magic = nil
		}
		s.magicReg = reg
	}
	s.plan = s.buildPlan(traces, decls)
}

// checkRewritten types rng, the form the pipeline rewrote the query into,
// with the parameters typed as the parsed form typed them. It must yield a
// relation type compatible with the parsed form's; a set-expression head then
// takes the parsed head's type, so a rewrite never renames result attributes
// (pushdown replaces a constructed range by the constructor's body, whose
// first branch may carry the base relation's attribute names).
func (s *Stmt) checkRewritten(chk *typecheck.Checker, rng *ast.Range) error {
	typ, _, err := chk.CheckQuery(rng, s.params)
	if err != nil {
		return err
	}
	if !typ.CompatibleWith(s.typ) {
		return fmt.Errorf("types as %s, the query as %s", typ.Element, s.typ.Element)
	}
	if rng.Sub != nil && s.rng.Sub != nil && rng.Sub.Elem.CompatibleWith(*s.rng.Sub.Elem) {
		rng.Sub.Elem = s.rng.Sub.Elem
	}
	return nil
}

// magicRegistry checks the declarations the magic-sets pass generated as a
// module of their own — they are DBPL constructors like any other — and
// registers them in a private registry.
func magicRegistry(b *horn.Bundle) (*core.Registry, error) {
	chk := typecheck.New()
	m := &ast.Module{Name: "magic"}
	for _, rt := range b.RelTypes {
		chk.RelTypes[rt.Name] = rt
	}
	for _, pred := range b.IDB {
		m.Decls = append(m.Decls, b.Decls[pred])
	}
	if err := chk.CheckModule(m); err != nil {
		return nil, err
	}
	reg := core.NewRegistry()
	for _, pred := range b.IDB {
		if _, err := reg.Register(b.Decls[pred], b.RelTypes[pred]); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// prepareCached returns the plan-cached statement for src, preparing and
// caching it on a miss. Used by the one-shot Query entry points. The
// generation check keeps a statement resolved against pre-invalidation
// declarations from being cached after a concurrent clear.
func (d *DB) prepareCached(src string) (*Stmt, error) {
	if st, ok := d.plans.get(src); ok {
		return st, nil
	}
	gen := d.plans.generation()
	st, err := d.Prepare(src)
	if err != nil {
		return nil, err
	}
	d.plans.putAt(gen, src, st)
	return st, nil
}

// Source returns the statement's source text.
func (s *Stmt) Source() string { return s.src }

// Params returns the scalar parameter names in binding order: the order of
// their first appearance in the source.
func (s *Stmt) Params() []string {
	out := make([]string, len(s.params))
	for i, p := range s.params {
		out[i] = p.Name
	}
	return out
}

// Close invalidates the statement handle. Executions in flight are
// unaffected, and the DB's plan cache (which holds its own statements) is not
// touched — a subsequent one-shot Query of the same source still hits it.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// Query executes the statement against a snapshot of the current state,
// binding args positionally to the statement's scalar parameters (Value,
// string, int, int64, or bool).
func (s *Stmt) Query(ctx context.Context, args ...any) (*Relation, error) {
	rel, err := s.exec(ctx, args, nil)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// QueryRows is Query with a row cursor over the evaluated result. The cursor
// counts against the session's WithMaxOpenRows cap until it is closed.
func (s *Stmt) QueryRows(ctx context.Context, args ...any) (*Rows, error) {
	release, err := s.db.acquireRows()
	if err != nil {
		return nil, err
	}
	rel, err := s.exec(ctx, args, nil)
	if err != nil {
		release()
		return nil, err
	}
	return newRows(ctx, rel, release), nil
}

// execStats collects per-execution counters for EXPLAIN ANALYZE.
type execStats struct {
	// stmt is the statement that ran: the one executed, or its instance for
	// the bound values when it has open parameters.
	stmt   *Stmt
	exec   eval.ExecStats
	engine core.Stats
	// view is the materialized-view outcome of the execution, when a
	// cacheable constructor application ran (viewSet reports whether).
	view    core.ViewStats
	viewSet bool
}

// bindArgs is the preamble of every execution: it rejects a closed statement,
// an argument-count mismatch, an already-dead context and an argument of
// another kind than its parameter's type, then binds args positionally to the
// statement's scalar parameters in env. It returns the statement to run: s,
// or, when s has open parameters, s prepared again with those typed by the
// values bound to them.
func (s *Stmt) bindArgs(ctx context.Context, env *eval.Env, args []any) (*Stmt, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	if len(args) != len(s.params) {
		return nil, fmt.Errorf("dbpl: statement %q expects %d argument(s) %v, got %d",
			s.src, len(s.params), s.Params(), len(args))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var given []typecheck.Param
	for i, p := range s.params {
		v, err := value.FromGo(args[i])
		if err != nil {
			return nil, fmt.Errorf("dbpl: binding parameter %q: %w", p.Name, err)
		}
		switch {
		case p.Type.Kind == value.KindInvalid:
			p.Type = typecheck.ScalarOf(v)
		case p.Type.Kind != v.Kind():
			return nil, &TypeError{Msg: fmt.Sprintf("statement %q: parameter %q is %s, bound to the %s value %s",
				s.src, p.Name, p.Type, v.Kind(), v)}
		}
		if s.open {
			given = append(given, p)
		}
		env.Scalars[p.Name] = v
	}
	if !s.open {
		return s, nil
	}
	return s.db.prepare(s.src, given)
}

func (s *Stmt) exec(ctx context.Context, args []any, ex *execStats) (*relation.Relation, error) {
	env, en, err := s.db.newEval(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	return s.execWith(ctx, env, en, args, ex)
}

// execWith runs the compiled plan in an environment newEval built: over the
// store's current state, or over a transaction's view.
func (s *Stmt) execWith(ctx context.Context, env *eval.Env, en *core.Engine, args []any, ex *execStats) (*relation.Relation, error) {
	run, err := s.bindArgs(ctx, env, args)
	if err != nil {
		return nil, err
	}
	if ex != nil {
		ex.stmt = run
		env.ExecStats = &ex.exec
	}
	var rel *relation.Relation
	if run.magic != nil {
		rel, err = run.execMagic(ctx, env, en, ex)
	} else {
		rel, err = env.Range(run.execRng)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	s.db.recordStats(en)
	if ex != nil {
		if en.Applies.Load() > 0 {
			ex.engine = en.LastStats()
		}
		if vs, ok := en.LastView(); ok {
			ex.view, ex.viewSet = vs, true
		}
	}
	return rel, nil
}

// execMagic executes the magic-sets plan: instead of computing the recursive
// constructor's full least fixpoint and filtering, it evaluates the
// magic-transformed system seeded with the selector's constant, re-labels the
// (much smaller) restricted result to the constructor's result type, and
// applies the query's suffixes from the selector onward — the original
// selector acting as the final filter that makes the restriction exact.
func (s *Stmt) execMagic(ctx context.Context, env *eval.Env, outer *core.Engine, ex *execStats) (*relation.Relation, error) {
	mp := s.magic
	base, ok := env.Rels[s.execRng.Var]
	if !ok {
		return nil, fmt.Errorf("dbpl: unknown relation %q", s.execRng.Var)
	}
	d := s.db
	// A full fixpoint of the constructor already materialized (and kept
	// current) for this base beats the restricted system: serve it and let
	// the original selector filter, skipping the magic fixpoint entirely.
	// Peek never computes on a miss, so the restriction still wins cold.
	if d.views != nil {
		full, ok, err := d.views.Peek(ctx, outer, mp.Constructor, base)
		if err != nil {
			return nil, err
		}
		if ok {
			return env.ApplySuffixes(full, s.execRng, mp.SuffixFrom)
		}
	}
	men, en, err := d.newEval(ctx, nil, s.magicReg)
	if err != nil {
		return nil, err
	}
	men.ExecStats = env.ExecStats
	args := make([]eval.Resolved, 0, len(mp.Bundle.EDB)+len(mp.Bundle.IDB))
	for _, pred := range mp.Bundle.EDB {
		if pred == mp.BasePred {
			args = append(args, eval.Resolved{Rel: horn.RetypeRelation(mp.Bundle.RelTypes[pred], base)})
		} else {
			args = append(args, eval.Resolved{Rel: relation.New(mp.Bundle.RelTypes[pred])})
		}
	}
	for _, pred := range mp.Bundle.IDB {
		args = append(args, eval.Resolved{Rel: relation.New(mp.Bundle.RelTypes[pred])})
	}
	seed := relation.New(mp.Bundle.RelTypes[mp.GoalPred])
	res, err := en.ApplyContext(ctx, mp.GoalCons, seed, args)
	if err != nil {
		return nil, err
	}
	s.db.recordStats(en)
	if ex != nil {
		ex.engine = en.LastStats()
	}
	restricted := horn.RetypeRelation(mp.Result, res)
	return env.ApplySuffixes(restricted, s.execRng, mp.SuffixFrom)
}

// ---------------------------------------------------------------------------
// LRU plan cache
// ---------------------------------------------------------------------------

// planCache is a mutex-guarded LRU map from query source text to prepared
// statements, consulted by the one-shot Query entry points. The generation
// counter advances on every clear so entries resolved before an
// invalidation cannot be inserted after it.
type planCache struct {
	mu  sync.Mutex
	max int
	gen uint64
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type planEntry struct {
	key string
	st  *Stmt
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *planCache) get(key string) (*Stmt, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).st, true
}

// generation returns the current invalidation generation, sampled before
// preparing a statement intended for putAt.
func (c *planCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// putAt inserts only if no clear ran since gen was sampled.
func (c *planCache) putAt(gen uint64, key string, st *Stmt) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).st = st
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, st: st})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*planEntry).key)
	}
}

// Len reports the number of cached plans.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// clear drops every cached plan. Called whenever the declaration state a
// prepared statement resolved against may have changed (module execution,
// programmatic Declare, LoadStore), so stale classifications cannot stick.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	clear(c.m)
}

// PlanCacheLen reports the number of cached query plans (for tests and
// monitoring).
func (d *DB) PlanCacheLen() int { return d.plans.Len() }
