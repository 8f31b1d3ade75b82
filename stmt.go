package dbpl

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/eval"
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
// it through the optimizer pass pipeline (flatten, constraint propagation,
// nest) exactly once. The resulting compiled plan, inspectable via Plan,
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
// insert's next value shares them and extends them by the inserted tuples).
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
	// non-nil, is the restriction of a recursive constructor application in
	// it: execRng applies the generated constructors, which reg — the
	// database's registry with them registered — resolves.
	execRng *ast.Range
	magic   *optimizer.MagicPlan
	reg     *core.Registry
	plan    *Plan

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
// set expressions the passes built, and the declarations a restriction
// generated are checked and registered like a module's. Pass failures never
// fail preparation — every pass is an optimization, not a semantic
// requirement — they are recorded in the plan's trace instead, and a
// rewritten form that does not type as the parsed one does is dropped for the
// query as written.
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
			var err error
			if q.Magic != nil {
				chk, s.reg, err = generated(chk, decls, q.Magic.Decls)
			}
			if err == nil {
				err = s.checkRewritten(chk, q.Rng)
			}
			if err != nil {
				traces = append(traces, optimizer.Trace{
					Pass: "typecheck", Detail: "error: rewritten form dropped, the query runs as written: " + err.Error()})
				q, s.reg = &optimizer.Query{Rng: ast.CopyRange(s.rng)}, nil
			}
		}
	}
	s.execRng, s.magic = q.Rng, q.Magic
	s.plan = s.buildPlan(traces, decls)
}

// checkRewritten types rng, the form the pipeline rewrote the query into,
// with the parameters typed as the parsed form typed them. It must yield a
// relation type compatible with the parsed form's; a set-expression head then
// takes the parsed head's type, so a rewrite never renames result attributes
// (propagation may replace a constructed range by the constructor's body,
// whose first branch may carry the base relation's attribute names).
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

// generated compiles the declarations a restriction generated — DBPL
// constructors like any other — as a module into clones of the checker and
// the database's registry: the checker the rewritten form is typed by and the
// registry it runs over.
func generated(chk *typecheck.Checker, decls *declSnapshot, gen []*ast.ConstructorDecl) (*typecheck.Checker, *core.Registry, error) {
	chk, reg := chk.Clone(chk.VarType), decls.registry.Clone()
	m := &ast.Module{Name: "restrict"}
	for _, g := range gen {
		m.Decls = append(m.Decls, g)
	}
	_, err := compile.CompileModuleInto(m, chk, reg)
	return chk, reg, err
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

// QueryRows is Query with a row cursor over the evaluated result.
func (s *Stmt) QueryRows(ctx context.Context, args ...any) (*Rows, error) {
	rel, err := s.exec(ctx, args, nil)
	if err != nil {
		return nil, err
	}
	return newRows(ctx, rel), nil
}

// execStats collects per-execution counters for EXPLAIN ANALYZE.
type execStats struct {
	// stmt is the statement that ran: the one executed, or its instance for
	// the bound values when it has open parameters.
	stmt *Stmt
	// rng is the form that ran: the statement's rewritten form, or its
	// unrestricted form when a materialization served it; selectors are the
	// declarations it ran with.
	rng       *ast.Range
	selectors map[string]*ast.SelectorDecl
	exec      eval.ExecStats
	engine    core.Stats
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
	env, en, err := s.db.newEval(ctx, nil)
	if err != nil {
		return nil, err
	}
	return s.execWith(ctx, env, en, args, ex)
}

// execWith runs the compiled plan in an environment newEval built: over the
// store's current state, or over a transaction's view. A restricted plan
// makes one decision from observed state: when a current materialization of
// the unrestricted application exists, serving it beats the restricted
// system, so the unrestricted form runs; otherwise the rewritten form runs
// over the statement's registry, without the view cache — generated
// constructors are never materialized.
func (s *Stmt) execWith(ctx context.Context, env *eval.Env, en *core.Engine, args []any, ex *execStats) (*relation.Relation, error) {
	run, err := s.bindArgs(ctx, env, args)
	if err != nil {
		return nil, err
	}
	if ex != nil {
		ex.stmt = run
		env.ExecStats = &ex.exec
	}
	rng := run.execRng
	if m := run.magic; m != nil {
		if s.db.views.Peek(m.Constructor, env.Rels[m.Base]) {
			rng = m.Unrestrict(rng)
		} else {
			en.Registry, en.Views = run.reg, nil
		}
	}
	if ex != nil {
		ex.rng, ex.selectors = rng, env.Selectors
	}
	rel, err := env.Range(rng)
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

// ---------------------------------------------------------------------------
// LRU plan cache
// ---------------------------------------------------------------------------

// planCache is a mutex-guarded LRU map, DefaultPlanCacheSize entries long,
// from query source text to prepared statements, consulted by the one-shot Query entry points. The generation
// counter advances on every clear so entries resolved before an
// invalidation cannot be inserted after it.
type planCache struct {
	mu  sync.Mutex
	gen uint64
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type planEntry struct {
	key string
	st  *Stmt
}

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *planCache) get(key string) (*Stmt, bool) {
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
	for c.ll.Len() > DefaultPlanCacheSize {
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
