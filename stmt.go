package dbpl

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/optimizer"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/value"
)

// Stmt is a prepared query: Prepare parses the source, resolves its relation,
// selector, and constructor references, and lowers it through the optimizer
// pass pipeline (flatten, selection pushdown, magic sets, nest) exactly once.
// The resulting compiled plan, inspectable via Plan, is what every Query call
// executes — concurrently, if desired — against a snapshot of the database's
// current state. Scalar parameters (bare
// identifiers that do not name a relation variable) are bound positionally on
// each Query call, in order of first appearance in the source.
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
	// rng is the parsed form: every query is a range expression, a set
	// expression being the range whose head is that sub-expression.
	rng    *ast.Range
	params []string // scalar parameter names, first-appearance order

	// execRng is the pipeline's rewritten form, executed by Query. magic, when
	// non-nil, replaces the head of execRng with a magic-restricted fixpoint
	// over magicReg.
	execRng  *ast.Range
	magic    *optimizer.MagicPlan
	magicReg *core.Registry
	plan     *Plan

	closed atomic.Bool
}

// Prepare parses, resolves, and plans a query — a range expression such as
// `Infront[hidden_by(Obj)]{ahead}` or a set expression such as
// `{EACH r IN Infront: TRUE}` — for repeated execution.
func (d *DB) Prepare(src string) (*Stmt, error) {
	r, err := parser.ParseRange(src)
	if err != nil {
		return nil, wrapErr(err)
	}
	st := &Stmt{db: d, src: src, rng: r}
	if err := st.resolve(); err != nil {
		return nil, err
	}
	st.compile()
	return st, nil
}

// compile lowers the parsed query through the optimizer pass pipeline over a
// private deep copy of the AST and records the resulting plan. Pass failures
// never fail preparation — every pass is an optimization, not a semantic
// requirement — they are recorded in the plan's trace instead.
func (s *Stmt) compile() {
	d := s.db
	decls, st, _ := d.current()

	q := &optimizer.Query{Rng: ast.CopyRange(s.rng)}
	var traces []optimizer.Trace
	if !d.noOptimize {
		pctx := &optimizer.Context{
			Selectors:    decls.selectors,
			Constructors: decls.checker.Constructors,
			RelTypes:     decls.checker.RelTypes,
			Recursive:    decls.recursive,
			VarType:      st.Type,
		}
		traces = optimizer.RunPipeline(optimizer.DefaultPipeline(), q, pctx)
	}
	s.execRng, s.magic = q.Rng, q.Magic

	if s.magic != nil {
		reg := core.NewRegistry()
		for _, pred := range s.magic.Bundle.IDB {
			if _, err := reg.Register(s.magic.Bundle.Decls[pred], s.magic.Bundle.RelTypes[pred]); err != nil {
				// Registration failure (e.g. a transformed rule tripping the
				// positivity check) demotes the query to unrestricted
				// execution; the trace keeps the reason visible in EXPLAIN.
				traces = append(traces, optimizer.Trace{
					Pass: "magic", Detail: "error: registering restricted system: " + err.Error()})
				s.magic = nil
				reg = nil
				break
			}
		}
		s.magicReg = reg
	}
	s.plan = s.buildPlan(traces, decls)
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

// Params returns the scalar parameter names in binding order.
func (s *Stmt) Params() []string {
	out := make([]string, len(s.params))
	copy(out, s.params)
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
	exec   eval.ExecStats
	engine core.Stats
	// view is the materialized-view outcome of the execution, when a
	// cacheable constructor application ran (viewSet reports whether).
	view    core.ViewStats
	viewSet bool
}

// bindArgs is the preamble of every execution: it rejects a closed statement,
// an argument-count mismatch and an already-dead context, then binds args
// positionally to the statement's scalar parameters in env.
func (s *Stmt) bindArgs(ctx context.Context, env *eval.Env, args []any) error {
	if s.closed.Load() {
		return ErrStmtClosed
	}
	if len(args) != len(s.params) {
		return fmt.Errorf("dbpl: statement %q expects %d argument(s) %v, got %d",
			s.src, len(s.params), s.params, len(args))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, name := range s.params {
		v, err := value.FromGo(args[i])
		if err != nil {
			return fmt.Errorf("dbpl: binding parameter %q: %w", name, err)
		}
		env.Scalars[name] = v
	}
	return nil
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
	if err := s.bindArgs(ctx, env, args); err != nil {
		return nil, err
	}
	if ex != nil {
		env.ExecStats = &ex.exec
	}
	var rel *relation.Relation
	var err error
	if s.magic != nil {
		rel, err = s.execMagic(ctx, env, en, ex)
	} else {
		rel, err = env.Range(s.execRng)
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
// Name resolution (the prepare-time "typecheck" of the query surface)
// ---------------------------------------------------------------------------

// ref is a positioned name reference collected from the query AST.
type ref struct {
	name string
	pos  ast.Pos
}

// sufRef is a selector/constructor application reference.
type sufRef struct {
	kind ast.SuffixKind
	name string
	argc int
	pos  ast.Pos
}

// queryRefs accumulates the references of one query in syntactic order.
type queryRefs struct {
	rels    []ref    // ranges that must name relation variables
	sufs    []sufRef // selector/constructor applications
	scalars []ref    // names that can only be scalar parameters (term position)
	flex    []ref    // bare-identifier arguments: relation or scalar parameter
}

func (q *queryRefs) walkRange(r *ast.Range) {
	if r.Sub != nil {
		q.walkSet(r.Sub)
	} else if r.Var != "" {
		q.rels = append(q.rels, ref{r.Var, r.Pos})
	}
	for i := range r.Suffixes {
		s := &r.Suffixes[i]
		q.sufs = append(q.sufs, sufRef{s.Kind, s.Name, len(s.Args), s.Pos})
		for _, a := range s.Args {
			switch {
			case a.Scalar != nil:
				q.walkTerm(a.Scalar)
			case a.Rel != nil:
				if a.Rel.Sub == nil && len(a.Rel.Suffixes) == 0 {
					// A bare identifier: relation variable or scalar
					// parameter — decided at resolution.
					q.flex = append(q.flex, ref{a.Rel.Var, a.Rel.Pos})
				} else {
					q.walkRange(a.Rel)
				}
			}
		}
	}
}

func (q *queryRefs) walkSet(s *ast.SetExpr) {
	for i := range s.Branches {
		br := &s.Branches[i]
		for _, t := range br.Literal {
			q.walkTerm(t)
		}
		for _, t := range br.Target {
			q.walkTerm(t)
		}
		for _, bd := range br.Binds {
			q.walkRange(bd.Range)
		}
		if br.Where != nil {
			q.walkPred(br.Where)
		}
	}
}

func (q *queryRefs) walkPred(p ast.Pred) {
	switch t := p.(type) {
	case ast.Cmp:
		q.walkTerm(t.L)
		q.walkTerm(t.R)
	case ast.And:
		q.walkPred(t.L)
		q.walkPred(t.R)
	case ast.Or:
		q.walkPred(t.L)
		q.walkPred(t.R)
	case ast.Not:
		q.walkPred(t.P)
	case ast.Quant:
		q.walkRange(t.Range)
		q.walkPred(t.Body)
	case ast.Member:
		for _, tm := range t.Terms {
			q.walkTerm(tm)
		}
		q.walkRange(t.Range)
	}
}

func (q *queryRefs) walkTerm(t ast.Term) {
	switch u := t.(type) {
	case ast.Param:
		q.scalars = append(q.scalars, ref{u.Name, u.Pos})
	case ast.Arith:
		q.walkTerm(u.L)
		q.walkTerm(u.R)
	}
}

// resolve validates every reference against the current declarations and
// derives the statement's scalar parameter list: term-position identifiers
// plus bare-identifier arguments that do not name a relation variable.
func (s *Stmt) resolve() error {
	var q queryRefs
	q.walkRange(s.rng)

	decls, st, _ := s.db.current()

	for _, r := range q.rels {
		if _, ok := st.Type(r.name); !ok {
			return fmt.Errorf("dbpl: %s: unknown relation %q", r.pos, r.name)
		}
	}
	for _, sf := range q.sufs {
		switch sf.kind {
		case ast.SuffixSelector:
			decl, ok := decls.selectors[sf.name]
			if !ok {
				return fmt.Errorf("dbpl: %s: unknown selector %q", sf.pos, sf.name)
			}
			if len(decl.Params) != sf.argc {
				return fmt.Errorf("dbpl: %s: selector %q expects %d argument(s), got %d",
					sf.pos, sf.name, len(decl.Params), sf.argc)
			}
		default:
			cons, ok := decls.registry.Lookup(sf.name)
			if !ok {
				return fmt.Errorf("dbpl: %s: unknown constructor %q", sf.pos, sf.name)
			}
			if len(cons.Decl.Params) != sf.argc {
				return fmt.Errorf("dbpl: %s: constructor %q expects %d argument(s), got %d",
					sf.pos, sf.name, len(cons.Decl.Params), sf.argc)
			}
		}
	}

	// Parameter list: scalar-only names, then flex names that do not name a
	// relation, deduplicated in first-appearance order.
	seen := make(map[string]bool)
	for _, r := range q.scalars {
		if !seen[r.name] {
			seen[r.name] = true
			s.params = append(s.params, r.name)
		}
	}
	for _, r := range q.flex {
		if _, isRel := st.Type(r.name); isRel || seen[r.name] {
			continue
		}
		seen[r.name] = true
		s.params = append(s.params, r.name)
	}
	return nil
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
