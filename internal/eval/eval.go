// Package eval implements the set-oriented evaluator for DBPL relational
// calculus expressions — the "set-construction framework of database systems"
// that the paper contrasts with proof-oriented, tuple-at-a-time methods
// (sections 1 and 4).
//
// A set expression {branch, branch, ...} evaluates to the union of its
// branches. Each branch binds tuple variables to materialized ranges, applies
// its predicate, and projects through the target list. PlanBranch is the one
// physical planner: top-level conjuncts of the predicate that equate an
// attribute of a binding with constants, parameters or attributes of earlier
// bindings become hash-index probes (the equi-join of f.back = b.head in the
// ahead constructor; on the first binding, the paper's physical access path),
// and every other conjunct is evaluated at the earliest binding position
// where its free variables are bound.
//
// A selector application Rel[sel(args)] is not a second mechanism: it is the
// one-binding branch EACH r IN Rel: pred(r) of its declaration (section 2.3),
// planned by the same planner and run by the same operator pipeline.
//
// Whether a closed equality on a branch's first binding is a hash-index probe
// or a filtered scan is decided once, on the materialized value: a relation
// name's value is probed through the index memoized on it (built on first
// use); a derived value — a constructor result, a sub-expression, another
// selector's result — is probed only when it already carries that index, as a
// constructor result served by the materialized-view cache does once
// maintenance has joined against it. No index is ever built on a derived
// value for this, and none is memoized on a value in Env.Unindexed.
// SelectorAccess is the cold default EXPLAIN shows before anything has run.
//
// The evaluator infers no types. It runs what package typecheck has typed, and
// takes its types from the tree: a set expression builds its result under
// ast.SetExpr.Elem, a tuple variable reads its range through ast.Range.Elem.
// The name, attribute and kind checks it still makes per value are safety code
// behind that static check, not a second judgement.
package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Resolved is an evaluated actual argument to a selector or constructor.
type Resolved struct {
	Rel      *relation.Relation
	Scalar   value.Value
	IsScalar bool
}

// ConstructorResolver resolves a constructor application Rel{c(args)} to its
// constructed value. Package core supplies the least-fixpoint implementation;
// the indirection keeps eval free of a dependency cycle. The context carries
// cancellation into the fixpoint iteration.
type ConstructorResolver interface {
	ApplyConstructor(ctx context.Context, name string, base *relation.Relation, args []Resolved) (*relation.Relation, error)
}

// Env is the evaluation environment: relation variables (including formal
// base-relation and relation-parameter names during constructor evaluation),
// scalar parameters, selector declarations, and the constructor resolver.
type Env struct {
	Rels         map[string]*relation.Relation
	Scalars      map[string]value.Value
	Selectors    map[string]*ast.SelectorDecl
	Constructors ConstructorResolver

	// ScanSelectors makes every selector application scan its base, whatever
	// SelectorAccess decides (the session's WithoutOptimization reference path).
	ScanSelectors bool

	// Ctx, when non-nil, cancels long evaluations: the branch loops check it
	// periodically and constructor applications thread it into the fixpoint
	// iteration. A nil Ctx means "never cancelled".
	Ctx context.Context

	// ExecStats, when non-nil, receives per-operator executor counters,
	// surfaced by EXPLAIN ANALYZE.
	ExecStats *ExecStats

	// Unindexed names relation variables whose values must not carry a
	// memoized index: values the caller keeps past the evaluation but will
	// not join again, which an index would only stay alive with (the
	// fixpoint state a view's delete-and-rederive pass reads). A branch's
	// largest binding over one is its outer scan, so the bindings joined
	// to it are the hashed sides; any other probed one is indexed for the
	// evaluation only.
	Unindexed map[string]bool

	// rangeMemo caches materialized ranges within one evaluation so that
	// quantifier ranges inside loops are not re-materialized per tuple.
	rangeMemo map[*ast.Range]*relation.Relation
	// steps counts tuple visits, so cancellation is polled only every few
	// hundred tuples instead of per tuple.
	steps uint
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{
		Rels:      make(map[string]*relation.Relation),
		Scalars:   make(map[string]value.Value),
		Selectors: make(map[string]*ast.SelectorDecl),
	}
}

// Clone returns a shallow copy sharing definitions but with an independent
// relation binding map, for scoped re-binding.
func (e *Env) Clone() *Env {
	c := &Env{
		Rels:          make(map[string]*relation.Relation, len(e.Rels)),
		Scalars:       make(map[string]value.Value, len(e.Scalars)),
		Selectors:     e.Selectors,
		Constructors:  e.Constructors,
		ScanSelectors: e.ScanSelectors,
		Ctx:           e.Ctx,
		ExecStats:     e.ExecStats,
	}
	for k, v := range e.Rels {
		c.Rels[k] = v
	}
	for k, v := range e.Scalars {
		c.Scalars[k] = v
	}
	return c
}

// bindings tracks tuple-variable bindings during branch evaluation.
type bindings struct {
	vars  []string
	tups  []value.Tuple
	types []schema.RecordType
}

func (b *bindings) lookup(v string) (value.Tuple, schema.RecordType, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if b.vars[i] == v {
			return b.tups[i], b.types[i], true
		}
	}
	return nil, schema.RecordType{}, false
}

func (b *bindings) push(v string, t value.Tuple, rt schema.RecordType) {
	b.vars = append(b.vars, v)
	b.tups = append(b.tups, t)
	b.types = append(b.types, rt)
}

func (b *bindings) pop() {
	b.vars = b.vars[:len(b.vars)-1]
	b.tups = b.tups[:len(b.tups)-1]
	b.types = b.types[:len(b.types)-1]
}

// ---------------------------------------------------------------------------
// Range materialization
// ---------------------------------------------------------------------------

// Range materializes a range expression: the base relation with every
// selector/constructor suffix applied left to right.
func (e *Env) Range(r *ast.Range) (*relation.Relation, error) {
	if e.rangeMemo == nil {
		e.rangeMemo = make(map[*ast.Range]*relation.Relation)
	}
	if cached, ok := e.rangeMemo[r]; ok {
		return cached, nil
	}
	var cur *relation.Relation
	var err error
	switch {
	case r.Sub != nil:
		if r.Sub.Elem == nil {
			return nil, fmt.Errorf("%s: set expression was not type-checked", r.Sub.Pos)
		}
		cur, err = e.SetExpr(r.Sub, schema.RelationType{Element: *r.Sub.Elem})
		if err != nil {
			return nil, err
		}
	default:
		var ok bool
		cur, ok = e.Rels[r.Var]
		if !ok {
			return nil, fmt.Errorf("%s: unknown relation %q", r.Pos, r.Var)
		}
	}
	for i := range r.Suffixes {
		if cur, err = e.applySuffix(cur, r, i); err != nil {
			return nil, err
		}
	}
	e.rangeMemo[r] = cur
	return cur, nil
}

// applySuffix applies suffix i of r to base, the value of r's first i
// suffixes.
func (e *Env) applySuffix(base *relation.Relation, r *ast.Range, i int) (*relation.Relation, error) {
	s := &r.Suffixes[i]
	switch s.Kind {
	case ast.SuffixSelector:
		// The base is a relation name's value only as the first suffix of a
		// range without a subexpression.
		named := r.Sub == nil && i == 0
		return e.Select(s, base, named, named && e.Unindexed[r.Var])
	default:
		if e.Constructors == nil {
			return nil, fmt.Errorf("%s: constructor %q applied but no constructor resolver installed", s.Pos, s.Name)
		}
		args, err := e.ResolveArgs(s.Args)
		if err != nil {
			return nil, err
		}
		return e.Constructors.ApplyConstructor(e.Context(), s.Name, base, args)
	}
}

// Context returns the environment's cancellation context, never nil.
func (e *Env) Context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// cancelled polls Ctx every 256 tuple visits; the coarse stride keeps the
// check off the hot path.
func (e *Env) cancelled() error {
	if e.Ctx == nil {
		return nil
	}
	e.steps++
	if e.steps&255 != 0 {
		return nil
	}
	return e.Ctx.Err()
}

// ResetMemo clears the materialized-range cache. Callers that re-bind
// relation variables between evaluations over the same AST (the fixpoint
// engine re-binding recursive occurrences each round) must reset the memo.
func (e *Env) ResetMemo() { e.rangeMemo = nil }

// ResolveArgs evaluates actual arguments. A bare-identifier "relation"
// argument that names a bound scalar parameter is reinterpreted as a scalar
// (the parser cannot distinguish the two).
func (e *Env) ResolveArgs(args []ast.Arg) ([]Resolved, error) {
	out := make([]Resolved, len(args))
	for i, a := range args {
		switch {
		case a.Scalar != nil:
			v, err := e.Term(a.Scalar, nil)
			if err != nil {
				return nil, err
			}
			out[i] = Resolved{Scalar: v, IsScalar: true}
		case a.Rel != nil:
			if a.Rel.Sub == nil && len(a.Rel.Suffixes) == 0 {
				if v, ok := e.Scalars[a.Rel.Var]; ok {
					out[i] = Resolved{Scalar: v, IsScalar: true}
					continue
				}
			}
			rel, err := e.Range(a.Rel)
			if err != nil {
				return nil, err
			}
			out[i] = Resolved{Rel: rel}
		default:
			return nil, fmt.Errorf("empty argument")
		}
	}
	return out, nil
}

// SelectorAccess is the cold access path of the application of decl as suffix
// i of range r: the one an execution takes when no value it reaches carries
// an index (section 4: a relation "partitioned according to the different
// constant values"). attr is the attribute the selector's body equates with
// its single scalar parameter,
//
//	EACH r IN Rel: r.attr = Param
//
// possibly as one conjunct of a conjunction ("" when there is none): the
// equality PlanBranch turns into a probe on the branch's only binding.
// indexed reports that the application applies directly to a relation name,
// whose value is served from the hash index memoized on it. An execution
// decides on the base's value instead (Select): a derived base is
// probed too when its value already carries the index on attr.
func SelectorAccess(decl *ast.SelectorDecl, r *ast.Range, i int) (attr string, indexed bool) {
	plan, err := PlanBranch(decl.Branch, nil)
	if err != nil {
		return "", false
	}
	attr = plan.selectorAttr(decl)
	return attr, attr != "" && r.Sub == nil && i == 0
}

// selectorAttr is the attribute p, the plan of decl's branch, probes with
// decl's single scalar parameter ("" when there is none).
func (p *BranchPlan) selectorAttr(decl *ast.SelectorDecl) string {
	if len(decl.Params) != 1 {
		return ""
	}
	for j, tm := range p.probeTerms[0] {
		if pr, ok := tm.(ast.Param); ok && pr.Name == decl.Params[0].Name {
			return p.probeFields[0][j].Attr
		}
	}
	return ""
}

// SelectorElem is the record type a selector's body reads a base of element
// type base through: its declared For-type's, which re-labels the attributes
// (an infrontrel selector applied to a constructed aheadrel) — the type the
// checker left on the body's range; base's own for a declaration it has not
// seen.
func SelectorElem(decl *ast.SelectorDecl, base schema.RecordType) schema.RecordType {
	return rangeElem(decl.Branch.Binds[0].Range, base)
}

// Select evaluates the selector application s over base — the paper's
// Rel[sel(args)] (section 2.3, Fig 1), by its definition: the set expression
// {EACH r IN Rel: pred(r)} with the parameters substituted and the
// For-variable bound to base. The body's equality with the parameter is a
// probe of base's hash index when base is a relation name's value (named), or
// a derived value already carrying that index (bindIndexes); it is a filter
// over a scan of base when scan is set, the session scans selectors, or the
// body has no such equality. It is also the guard of a selected variable:
// V[sel(args)] := rex holds iff Select over rex returns all of rex.
func (e *Env) Select(s *ast.Suffix, base *relation.Relation, named, scan bool) (*relation.Relation, error) {
	decl, ok := e.Selectors[s.Name]
	if !ok {
		return nil, fmt.Errorf("%s: unknown selector %q", s.Pos, s.Name)
	}
	if len(s.Args) != len(decl.Params) {
		return nil, fmt.Errorf("%s: selector %q expects %d argument(s), got %d",
			s.Pos, s.Name, len(decl.Params), len(s.Args))
	}
	args, err := e.ResolveArgs(s.Args)
	if err != nil {
		return nil, err
	}
	// Scoped environment: formal scalar params bound to actuals, formal
	// relation params bound to actuals, and the For-variable to the base.
	scoped := e.Clone()
	for i, p := range decl.Params {
		if args[i].IsScalar {
			scoped.Scalars[p.Name] = args[i].Scalar
		} else {
			scoped.Rels[p.Name] = args[i].Rel
		}
	}
	scoped.Rels[decl.ForVar] = base

	plan, err := PlanBranch(decl.Branch, nil)
	if err != nil {
		return nil, err
	}
	plan.app = s
	if scan || e.ScanSelectors || plan.selectorAttr(decl) == "" {
		plan.scanOuter()
	}
	pb, err := scoped.bindPlan(&preparedBranch{plan: plan, derived: !named,
		rels:  []*relation.Relation{base},
		elems: []schema.RecordType{SelectorElem(decl, base.Type().Element)}})
	if err != nil {
		return nil, err
	}
	out := relation.New(base.Type())
	if err := scoped.runBranchPipeline(pb, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Set expression evaluation
// ---------------------------------------------------------------------------

// SetExpr evaluates a set expression into a relation of type rt: a
// constructor's declared result type, or the element type the checker gave
// the expression (ast.SetExpr.Elem).
func (e *Env) SetExpr(s *ast.SetExpr, rt schema.RelationType) (*relation.Relation, error) {
	out := relation.New(rt)
	for i := range s.Branches {
		if err := e.EvalBranchIntoExcluding(&s.Branches[i], out, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EvalBranchIntoExcluding evaluates a single branch, adding result tuples to
// out, except that tuples already present in except (which may be nil) are
// dropped — by the pipeline's project stage, before the dedup into out.
// Exposed for the fixpoint phases, which evaluate branches individually
// against delta relations and pass the state a result must be new to, so
// each round's merge cost is proportional to the true delta.
func (e *Env) EvalBranchIntoExcluding(br *ast.Branch, out, except *relation.Relation) error {
	pb, err := e.prepareBranch(br, out.Type())
	if err != nil {
		return err
	}
	if pb.literal != nil {
		if except != nil && except.Contains(pb.literal) {
			return nil
		}
		return out.Insert(pb.literal)
	}
	return e.runBranchPipeline(pb, out, except)
}

// preparedBranch is a branch ready to execute: either its literal tuple, or
// its plan with the materialized ranges (in plan order), the element type
// each binding's tuples are read through, the probe indexes bound to the
// ranges, and the outer binding's scan set. derived marks the first
// binding's value as derived rather than a relation name's: it keeps a probe
// only on an index it already carries.
type preparedBranch struct {
	literal value.Tuple
	plan    *BranchPlan
	rels    []*relation.Relation
	elems   []schema.RecordType
	derived bool
	indexes []*relation.Index
	outer   []value.Tuple
}

// prepareBranch is the branch prologue: a literal branch is evaluated and
// arity-checked against the result type rt; otherwise the ranges are
// materialized, the branch is planned over their cardinalities, the probe
// indexes are bound, and the outer scan set is resolved.
func (e *Env) prepareBranch(br *ast.Branch, rt schema.RelationType) (*preparedBranch, error) {
	if br.Literal != nil {
		tup := make(value.Tuple, len(br.Literal))
		for i, tm := range br.Literal {
			v, err := e.Term(tm, nil)
			if err != nil {
				return nil, err
			}
			tup[i] = v
		}
		if len(tup) != rt.Element.Arity() {
			return nil, fmt.Errorf("%s: literal tuple arity %d does not match result arity %d",
				br.Pos, len(tup), rt.Element.Arity())
		}
		return &preparedBranch{literal: tup}, nil
	}

	// Materialize all ranges up front.
	declared := make([]*relation.Relation, len(br.Binds))
	card := make([]int, len(br.Binds))
	for i, bd := range br.Binds {
		r, err := e.Range(bd.Range)
		if err != nil {
			return nil, err
		}
		declared[i], card[i] = r, r.Len()
	}
	outer := -1
	for i := range br.Binds {
		if e.unindexed(&br.Binds[i]) && (outer < 0 || card[i] > card[outer]) {
			outer = i
		}
	}
	plan, err := planBranch(br, card, outer)
	if err != nil {
		return nil, err
	}
	pb := &preparedBranch{plan: plan, rels: make([]*relation.Relation, len(declared)),
		elems: make([]schema.RecordType, len(declared)), derived: derived(plan.bind(0).Range)}
	for k, i := range plan.order {
		pb.rels[k], pb.elems[k] = declared[i], rangeElem(br.Binds[i].Range, declared[i].Type().Element)
	}
	return e.bindPlan(pb)
}

// rangeElem is the record type a tuple variable over r reads r's value
// through: the one the checker typed r with. A range the checker has not seen
// — a synthesized one, standing for a relation the evaluation itself built —
// is read through own, its value's own element type.
func rangeElem(r *ast.Range, own schema.RecordType) schema.RecordType {
	if r.Elem != nil {
		return *r.Elem
	}
	return own
}

// bindPlan completes a planned branch over its materialized ranges: it binds
// the probe indexes, records the plan as run, and resolves the outer scan
// set.
func (e *Env) bindPlan(pb *preparedBranch) (*preparedBranch, error) {
	pb.indexes = e.bindIndexes(pb)
	e.ExecStats.RecordPlan(pb.plan)
	var err error
	if pb.outer, err = e.outerTuples(pb); err != nil {
		return nil, err
	}
	return pb, nil
}

// BranchPlan is the run-time level's decision for one branch (section 4): the
// order its bindings nest in, the equality conjuncts served as hash-index
// probes, and the binding at which every other conjunct is evaluated. The
// slices are indexed by plan position, not by declaration index.
type BranchPlan struct {
	br *ast.Branch
	// app is the selector application the plan was made for, when br is a
	// selector's branch; nil for a branch of a set expression.
	app *ast.Suffix
	// order[k] is the index in br.Binds of the binding at plan position k.
	order []int
	// probeFields[k] lists attributes of binding k used as the index key;
	// probeTerms[k] lists the matching terms over earlier bindings.
	probeFields [][]ast.Field
	probeTerms  [][]ast.Term
	// residuals[k] are the conjuncts evaluated once bindings 0..k are set.
	residuals [][]ast.Pred
}

// bind returns the binding at plan position k.
func (p *BranchPlan) bind(k int) *ast.Binding { return &p.br.Binds[p.order[k]] }

// opLabel names one of the plan's operators in ExecStats: kind(v) for the
// operator binding v in a set-expression branch (plain kind for the
// project/dedup tail, v empty), kind[selector] for every operator of a
// selector application — so a selector's counters never merge with those of a
// branch that reuses its body variable's name.
func (p *BranchPlan) opLabel(kind, v string) string {
	switch {
	case p.app != nil:
		return kind + "[" + p.app.Name + "]"
	case v == "":
		return kind
	}
	return kind + "(" + v + ")"
}

// Describe renders the plan one line per binding, in the order the executor
// nests them: "EACH v IN r", followed by "[probe a = t, ...]" when the
// binding is reached through a hash index on attributes a keyed by terms t.
func (p *BranchPlan) Describe() []string {
	out := make([]string, len(p.order))
	for k := range p.order {
		bd := p.bind(k)
		out[k] = fmt.Sprintf("EACH %s IN %s", bd.Var, bd.Range)
		if len(p.probeFields[k]) == 0 {
			continue
		}
		probes := make([]string, len(p.probeFields[k]))
		for j, f := range p.probeFields[k] {
			probes[j] = f.Attr + " = " + p.probeTerms[k][j].String()
		}
		out[k] += " [probe " + strings.Join(probes, ", ") + "]"
	}
	return out
}

// freePredVars collects tuple variables free in p (quantifier-bound vars are
// excluded) into the set.
func freePredVars(p ast.Pred, bound map[string]bool, out map[string]bool) {
	switch q := p.(type) {
	case ast.BoolLit:
	case ast.Cmp:
		freeTermVars(q.L, out)
		freeTermVars(q.R, out)
	case ast.And:
		freePredVars(q.L, bound, out)
		freePredVars(q.R, bound, out)
	case ast.Or:
		freePredVars(q.L, bound, out)
		freePredVars(q.R, bound, out)
	case ast.Not:
		freePredVars(q.P, bound, out)
	case ast.Quant:
		inner := map[string]bool{q.Var: true}
		for k := range bound {
			inner[k] = true
		}
		var tmp map[string]bool = make(map[string]bool)
		freePredVars(q.Body, inner, tmp)
		for k := range tmp {
			if !inner[k] || bound[k] {
				out[k] = true
			}
		}
		delete(out, q.Var)
	case ast.Member:
		if q.VarTuple != "" {
			out[q.VarTuple] = true
		}
		for _, t := range q.Terms {
			freeTermVars(t, out)
		}
	}
}

func freeTermVars(t ast.Term, out map[string]bool) {
	switch u := t.(type) {
	case ast.Field:
		out[u.Var] = true
	case ast.Arith:
		freeTermVars(u.L, out)
		freeTermVars(u.R, out)
	}
}

// FreeVarsOfPred returns the free tuple variables of p; exported for the
// optimizer and quant-graph builder.
func FreeVarsOfPred(p ast.Pred) map[string]bool {
	out := make(map[string]bool)
	freePredVars(p, nil, out)
	return out
}

// PlanBranch plans a non-literal branch from its AST and, when card is
// non-nil, the cardinality of each binding's range in declaration order; a
// nil card keeps the declared order (the plan EXPLAIN shows before anything
// has run).
//
// Order: the binding with the smallest range moves to the front when it is
// substantially smaller than the declared outer. Ranges are materialized
// before the join loop runs, so they cannot reference sibling binding
// variables and any binding order computes the same branch result; driving
// the join from the small side matters most when the semi-naive engine
// differentiates a branch — the delta-bound occurrence becomes the outer scan
// and the large, unchanged relations become (memoized) index build sides,
// making a round's cost proportional to the delta. The 8x threshold keeps
// comparable-size joins in declaration order, where plans and operator stats
// are predictable.
//
// Probes and residuals: a top-level equality conjunct v.attr = term (or
// term = v.attr) whose term's variables all bind earlier than v becomes an
// index probe on v's range; every other conjunct is scheduled at the
// latest-binding of its free variables. On the first binding such a term is
// closed, and the probe is the access path that replaces the scan. With no
// value to look at, PlanBranch keeps it only when the range is a relation
// name — the cold default — and scans and filters a derived range. An
// execution decides on the materialized value (bindIndexes): a derived range
// whose value already carries the index is probed too.
func PlanBranch(br *ast.Branch, card []int) (*BranchPlan, error) {
	plan, err := planBranch(br, card, -1)
	if err == nil && derived(plan.bind(0).Range) {
		plan.scanOuter()
	}
	return plan, err
}

// derived reports whether r's value is computed by the evaluation — a
// sub-expression, or a relation with suffixes applied — not a variable's.
func derived(r *ast.Range) bool { return r.Sub != nil || len(r.Suffixes) > 0 }

// planBranch is PlanBranch with binding 0's probes left for the execution to
// decide on its value, and binding outer (when not -1) as the outer scan
// whatever its cardinality: a range over an Env.Unindexed relation.
func planBranch(br *ast.Branch, card []int, outer int) (*BranchPlan, error) {
	n := len(br.Binds)
	if n == 0 {
		return nil, fmt.Errorf("%s: branch has no bindings", br.Pos)
	}
	plan := &BranchPlan{
		br:          br,
		order:       make([]int, n),
		probeFields: make([][]ast.Field, n),
		probeTerms:  make([][]ast.Term, n),
		residuals:   make([][]ast.Pred, n),
	}
	for i := range plan.order {
		plan.order[i] = i
	}
	first := outer
	if card != nil && outer < 0 {
		smallest := 0
		for i := 1; i < n; i++ {
			if card[i] < card[smallest] {
				smallest = i
			}
		}
		if card[smallest]*8 < card[0] {
			first = smallest
		}
	}
	if first > 0 {
		copy(plan.order[1:], plan.order[:first])
		plan.order[0] = first
	}
	varPos := make(map[string]int, n)
	for k := range plan.order {
		bd := plan.bind(k)
		if _, dup := varPos[bd.Var]; dup {
			return nil, fmt.Errorf("%s: duplicate tuple variable %q", bd.Pos, bd.Var)
		}
		varPos[bd.Var] = k
	}

	for _, c := range ast.Conjuncts(br.Where) {
		if cmp, ok := c.(ast.Cmp); ok && cmp.Op == ast.OpEq {
			if plan.tryProbe(varPos, cmp.L, cmp.R) || plan.tryProbe(varPos, cmp.R, cmp.L) {
				continue
			}
		}
		at := 0
		for v := range FreeVarsOfPred(c) {
			k, ok := varPos[v]
			if !ok {
				// Variable bound outside this branch (nested contexts) —
				// schedule innermost to be safe.
				k = n - 1
			}
			if k > at {
				at = k
			}
		}
		plan.residuals[at] = append(plan.residuals[at], c)
	}
	if outer >= 0 {
		plan.scanOuter()
	}
	return plan, nil
}

// probeCmp is probe j of binding k as the equality conjunct it was made from.
func (p *BranchPlan) probeCmp(k, j int) ast.Pred {
	return ast.Cmp{Op: ast.OpEq, L: p.probeFields[k][j], R: p.probeTerms[k][j]}
}

// scanOuter makes binding 0 a scan: its probe equalities become residuals,
// evaluated as a filter over every tuple of the range.
func (p *BranchPlan) scanOuter() {
	for j := range p.probeFields[0] {
		p.residuals[0] = append(p.residuals[0], p.probeCmp(0, j))
	}
	p.probeFields[0], p.probeTerms[0] = nil, nil
}

// tryProbe attempts to register lhs (a Field of some binding k) probed by rhs
// (terms over strictly earlier bindings, params, and constants).
func (p *BranchPlan) tryProbe(varPos map[string]int, lhs, rhs ast.Term) bool {
	f, ok := lhs.(ast.Field)
	if !ok {
		return false
	}
	k, ok := varPos[f.Var]
	if !ok {
		return false
	}
	fv := make(map[string]bool)
	freeTermVars(rhs, fv)
	for v := range fv {
		j, ok := varPos[v]
		if !ok || j >= k {
			return false
		}
	}
	p.probeTerms[k] = append(p.probeTerms[k], rhs)
	p.probeFields[k] = append(p.probeFields[k], f)
	return true
}

// unindexed reports whether bd ranges directly over a variable in
// e.Unindexed.
func (e *Env) unindexed(bd *ast.Binding) bool {
	return !derived(bd.Range) && e.Unindexed[bd.Range.Var]
}

// bindIndexes resolves the plan's probe attributes against the element types
// the materialized ranges are read through and returns the hash index serving
// each probed binding, nil where a binding has no probe. A derived first
// binding whose value carries no index on the probed attributes is scanned
// instead: no index is built on a derived value.
func (e *Env) bindIndexes(pb *preparedBranch) []*relation.Index {
	plan, rels := pb.plan, pb.rels
	indexes := make([]*relation.Index, len(rels))
	for k := range rels {
		if len(plan.probeFields[k]) == 0 {
			continue
		}
		elem := pb.elems[k]
		positions := make([]int, 0, len(plan.probeFields[k]))
		okFields := plan.probeFields[k][:0]
		okTerms := plan.probeTerms[k][:0]
		for j, f := range plan.probeFields[k] {
			pos := elem.IndexOf(f.Attr)
			if pos < 0 {
				// Attribute does not exist at runtime type: demote the
				// conjunct to a residual so the usual error surfaces.
				plan.residuals[k] = append(plan.residuals[k], plan.probeCmp(k, j))
				continue
			}
			positions = append(positions, pos)
			okFields = append(okFields, f)
			okTerms = append(okTerms, plan.probeTerms[k][j])
		}
		plan.probeFields[k] = okFields
		plan.probeTerms[k] = okTerms
		switch {
		case len(positions) == 0:
		case k == 0 && pb.derived && !rels[0].HasIndexOn(positions):
			plan.scanOuter()
		case e.unindexed(plan.bind(k)):
			indexes[k] = relation.BuildIndex(rels[k], positions)
		default:
			indexes[k] = rels[k].IndexOn(positions)
		}
	}
	return indexes
}

// ---------------------------------------------------------------------------
// Predicates and terms
// ---------------------------------------------------------------------------

// Pred evaluates a predicate under the current bindings.
func (e *Env) Pred(p ast.Pred, b *bindings) (bool, error) {
	switch q := p.(type) {
	case ast.BoolLit:
		return q.Val, nil
	case ast.Cmp:
		l, err := e.Term(q.L, b)
		if err != nil {
			return false, err
		}
		r, err := e.Term(q.R, b)
		if err != nil {
			return false, err
		}
		if l.Kind() != r.Kind() {
			return false, fmt.Errorf("comparison %s between %s and %s values",
				q.Op, l.Kind(), r.Kind())
		}
		c := l.Compare(r)
		switch q.Op {
		case ast.OpEq:
			return c == 0, nil
		case ast.OpNe:
			return c != 0, nil
		case ast.OpLt:
			return c < 0, nil
		case ast.OpLe:
			return c <= 0, nil
		case ast.OpGt:
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case ast.And:
		l, err := e.Pred(q.L, b)
		if err != nil || !l {
			return false, err
		}
		return e.Pred(q.R, b)
	case ast.Or:
		l, err := e.Pred(q.L, b)
		if err != nil || l {
			return l, err
		}
		return e.Pred(q.R, b)
	case ast.Not:
		inner, err := e.Pred(q.P, b)
		return !inner, err
	case ast.Quant:
		rel, err := e.Range(q.Range)
		if err != nil {
			return false, err
		}
		elem := rangeElem(q.Range, rel.Type().Element)
		result := q.All // ALL over empty range is true; SOME is false
		var iterErr error
		rel.Each(func(t value.Tuple) bool {
			if err := e.cancelled(); err != nil {
				iterErr = err
				return false
			}
			b.push(q.Var, t, elem)
			ok, err := e.Pred(q.Body, b)
			b.pop()
			if err != nil {
				iterErr = err
				return false
			}
			if q.All && !ok {
				result = false
				return false
			}
			if !q.All && ok {
				result = true
				return false
			}
			return true
		})
		return result, iterErr
	case ast.Member:
		rel, err := e.Range(q.Range)
		if err != nil {
			return false, err
		}
		var tup value.Tuple
		if q.VarTuple != "" {
			t, _, ok := b.lookup(q.VarTuple)
			if !ok {
				return false, fmt.Errorf("%s: unbound tuple variable %q in membership", q.Pos, q.VarTuple)
			}
			tup = t
		} else {
			tup = make(value.Tuple, len(q.Terms))
			for i, tm := range q.Terms {
				v, err := e.Term(tm, b)
				if err != nil {
					return false, err
				}
				tup[i] = v
			}
		}
		return rel.Contains(tup), nil
	default:
		return false, fmt.Errorf("eval: unknown predicate %T", p)
	}
}

// Term evaluates a scalar term under the current bindings; b may be nil for
// closed terms.
func (e *Env) Term(t ast.Term, b *bindings) (value.Value, error) {
	switch u := t.(type) {
	case ast.Const:
		return u.Val, nil
	case ast.Param:
		if v, ok := e.Scalars[u.Name]; ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("%s: unbound scalar parameter %q", u.Pos, u.Name)
	case ast.Field:
		if b == nil {
			return value.Value{}, fmt.Errorf("%s: attribute access %s outside tuple scope", u.Pos, u)
		}
		tup, rt, ok := b.lookup(u.Var)
		if !ok {
			return value.Value{}, fmt.Errorf("%s: unbound tuple variable %q", u.Pos, u.Var)
		}
		idx := rt.IndexOf(u.Attr)
		if idx < 0 {
			return value.Value{}, fmt.Errorf("%s: tuple variable %q has no attribute %q (type %s)",
				u.Pos, u.Var, u.Attr, rt)
		}
		return tup[idx], nil
	case ast.Arith:
		l, err := e.Term(u.L, b)
		if err != nil {
			return value.Value{}, err
		}
		r, err := e.Term(u.R, b)
		if err != nil {
			return value.Value{}, err
		}
		if l.Kind() != value.KindInt || r.Kind() != value.KindInt {
			return value.Value{}, fmt.Errorf("arithmetic %s on non-integer operands", u.Op)
		}
		a, c := l.AsInt(), r.AsInt()
		switch u.Op {
		case ast.OpAdd:
			return value.Int(a + c), nil
		case ast.OpSub:
			return value.Int(a - c), nil
		case ast.OpMul:
			return value.Int(a * c), nil
		case ast.OpDiv:
			if c == 0 {
				return value.Value{}, fmt.Errorf("division by zero")
			}
			return value.Int(a / c), nil
		default:
			if c == 0 {
				return value.Value{}, fmt.Errorf("MOD by zero")
			}
			return value.Int(a % c), nil
		}
	default:
		return value.Value{}, fmt.Errorf("eval: unknown term %T", t)
	}
}
