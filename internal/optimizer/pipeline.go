package optimizer

// The pass pipeline: the section-4 rewrites packaged as one fixed, ordered
// sequence of named passes over one query. The session layer (package dbpl)
// runs the pipeline at Prepare time and exposes the resulting trace through
// EXPLAIN; the order is
//
//	flatten -> propagate -> nest
//
// mirroring the paper's workflow: flatten nested ranges "to understand and
// optimize a query in terms of base relations", propagate the constraints
// that sit at the top level into the definition of the constructor they
// select from — by inlining a non-recursive constructor with the selection
// pushed into its body (section 4 cases 1-3), and by restricting a recursive
// one to the query's bound constants and parameters (magic sets written over
// the declarations, magic.go: the modern form of the capture-rule and
// compiled-recursion techniques the paper cites for cyclic subgraphs) — and
// finally re-nest restrictive conjuncts (rules N1-N3) so evaluation filters
// early. Nest runs last because it moves conjuncts into nested ranges — the
// exact shape propagate's pattern match needs undone. Every rewrite's output
// is ordinary DBPL, type-checked like the query it came from.

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/typecheck"
)

// Context supplies the declaration state a pass may consult. All maps are
// read-only snapshots; passes must not mutate them.
type Context struct {
	// Selectors maps selector names to their declarations.
	Selectors map[string]*ast.SelectorDecl
	// Constructors maps constructor names to their resolved signatures.
	Constructors map[string]*typecheck.ConstructorSig
	// Recursive marks constructors on cycles of the augmented quant graph.
	Recursive map[string]bool
	// VarType resolves a relation variable's declared type.
	VarType func(name string) (schema.RelationType, bool)
}

// ElemOf statically resolves the element type a range produces, following
// constructor suffixes through their result types. ok is false for ranges the
// static analysis cannot type (sub-expressions, unknown names).
func (c *Context) ElemOf(r *ast.Range) (schema.RecordType, bool) {
	if c == nil || r.Sub != nil {
		return schema.RecordType{}, false
	}
	rt, ok := c.VarType(r.Var)
	if !ok {
		return schema.RecordType{}, false
	}
	elem := rt.Element
	for _, s := range r.Suffixes {
		if s.Kind == ast.SuffixConstructor {
			sig, ok := c.Constructors[s.Name]
			if !ok {
				return schema.RecordType{}, false
			}
			elem = sig.Result.Element
		}
	}
	return elem, true
}

// Query is the pipeline's working representation of one prepared query: a
// range expression (a set-expression query is the range whose head is that
// sub-expression). Passes rewrite the AST in place (they own a private deep
// copy made by the session layer). Magic is filled by the propagate pass when
// it restricts a recursive constructor application: the session registers its
// declarations for the rewritten form to run over.
type Query struct {
	Rng   *ast.Range
	Magic *MagicPlan
}

// Trace records one pass's outcome for EXPLAIN.
type Trace struct {
	Pass    string `json:"pass"`
	Applied bool   `json:"applied"`
	Detail  string `json:"detail,omitempty"`
}

// Pass is one rewrite of the pipeline. Run reports whether it changed the
// query and a human-readable detail for the EXPLAIN trace. A pass error does
// not abort preparation: the pipeline records it and continues, because every
// pass is an optimization, never a semantic requirement.
type Pass interface {
	Name() string
	Run(q *Query, ctx *Context) (applied bool, detail string, err error)
}

// DefaultPipeline returns the pass sequence in its one fixed order.
func DefaultPipeline() []Pass {
	return []Pass{flattenPass{}, propagatePass{}, nestPass{}}
}

// RecursiveFromSigs marks constructors that can reach themselves through the
// constructor-application graph of their bodies (direct or mutual recursion).
// It is the query-compilation-level recursion analysis of section 4, computed
// from the accumulated signatures of every executed module rather than from
// one module's quant graph, so the session layer can classify constructors
// declared across modules.
func RecursiveFromSigs(sigs map[string]*typecheck.ConstructorSig) map[string]bool {
	deps := make(map[string][]string, len(sigs))
	for name, sig := range sigs {
		seen := make(map[string]bool)
		ast.WalkRanges(sig.Decl.Body, func(r *ast.Range) {
			for _, s := range r.Suffixes {
				if s.Kind == ast.SuffixConstructor {
					seen[s.Name] = true
				}
			}
		})
		for n := range seen {
			deps[name] = append(deps[name], n)
		}
	}
	out := make(map[string]bool)
	for name := range sigs {
		stack := append([]string(nil), deps[name]...)
		visited := make(map[string]bool)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == name {
				out[name] = true
				break
			}
			if visited[n] {
				continue
			}
			visited[n] = true
			stack = append(stack, deps[n]...)
		}
	}
	return out
}

// RunPipeline applies the passes in order and returns the trace.
func RunPipeline(passes []Pass, q *Query, ctx *Context) []Trace {
	traces := make([]Trace, 0, len(passes))
	for _, p := range passes {
		applied, detail, err := p.Run(q, ctx)
		if err != nil {
			traces = append(traces, Trace{Pass: p.Name(), Detail: "error: " + err.Error()})
			continue
		}
		traces = append(traces, Trace{Pass: p.Name(), Applied: applied, Detail: detail})
	}
	return traces
}

// ---------------------------------------------------------------------------
// flatten — the <== direction of N1
// ---------------------------------------------------------------------------

type flattenPass struct{}

func (flattenPass) Name() string { return "flatten" }

func (flattenPass) Run(q *Query, _ *Context) (bool, string, error) {
	s := q.Rng.Sub
	if s == nil {
		return false, "no set expression", nil
	}
	out, n := Flatten(s)
	if n == 0 {
		return false, "no nested single-binding ranges", nil
	}
	*s = *out
	return true, fmt.Sprintf("flattened %d nested range(s) into conjuncts", n), nil
}

// ---------------------------------------------------------------------------
// nest — rules N1-N3
// ---------------------------------------------------------------------------

type nestPass struct{}

func (nestPass) Name() string { return "nest" }

func (nestPass) Run(q *Query, _ *Context) (bool, string, error) {
	s := q.Rng.Sub
	if s == nil {
		return false, "no set expression", nil
	}
	total := 0
	for i := range s.Branches {
		nb, n := NestBranch(s.Branches[i])
		if n > 0 {
			s.Branches[i] = nb
			total += n
		}
	}
	if total == 0 {
		return false, "no single-variable conjuncts to move", nil
	}
	return true, fmt.Sprintf("moved %d conjunct(s) into nested ranges (N1)", total), nil
}

// ---------------------------------------------------------------------------
// propagate — section 4: constraints into constructor definitions
// ---------------------------------------------------------------------------

// propagatePass propagates a selection into the definition of the constructor
// it selects from. Its one shape is a binding EACH v IN Base{c}: pred — a
// single-binding branch of a set-expression head, or a selector application
// Base{c}[sel(args)], which is that branch by its definition (section 2.3).
// A non-recursive c is inlined with pred pushed into every body branch
// (PushSelection, cases 1-3). A recursive c is restricted: the result
// attributes pred equates with constants or query parameters adorn c's
// declaration (Restrict), the application becomes Base{c__ad(values)}, and
// pred stays in place as the filter that makes it exact. One application per
// query is restricted.
type propagatePass struct{}

func (propagatePass) Name() string { return "propagate" }

func (propagatePass) Run(q *Query, ctx *Context) (bool, string, error) {
	if ctx == nil {
		return false, "no declaration context", nil
	}
	if q.Rng.Sub == nil {
		applied, why := restrictSelection(q, ctx)
		return applied, why, nil
	}
	var details []string
	var out []ast.Branch
	applied := false
	for i := range q.Rng.Sub.Branches {
		nb, why := propagateBranch(q, &q.Rng.Sub.Branches[i], ctx)
		applied = applied || nb != nil
		if nb == nil {
			nb = q.Rng.Sub.Branches[i : i+1]
		}
		out = append(out, nb...)
		if why != "" {
			details = append(details, why)
		}
	}
	if len(details) == 0 {
		details = append(details, "no selection over a constructor application")
	}
	q.Rng.Sub.Branches = out
	return applied, strings.Join(details, "; "), nil
}

// propagateBranch propagates br's predicate when br is EACH v IN Base{c}: pred,
// returning the branches that replace br (nil: br stays as it is).
func propagateBranch(q *Query, br *ast.Branch, ctx *Context) ([]ast.Branch, string) {
	if br.Literal != nil || len(br.Binds) != 1 || br.Where == nil {
		return nil, ""
	}
	bd := br.Binds[0]
	rng := bd.Range
	if rng.Sub != nil || len(rng.Suffixes) != 1 || rng.Suffixes[0].Kind != ast.SuffixConstructor {
		return nil, ""
	}
	sig, ok := ctx.Constructors[rng.Suffixes[0].Name]
	switch {
	case !ok:
		return nil, ""
	case ctx.Recursive[sig.Decl.Name]:
		bound := boundTerms(br.Where, bd.Var, sig.Result.Element, func(t ast.Term) ast.Term { return t })
		ok, why := restrict(q, ctx, rng, bound)
		if !ok {
			return nil, why
		}
		return []ast.Branch{*br}, why
	}
	return pushBranch(br, sig, ctx)
}

// restrictSelection restricts a range query Base{c}[sel(args)]...
func restrictSelection(q *Query, ctx *Context) (bool, string) {
	r := q.Rng
	if len(r.Suffixes) < 2 || r.Suffixes[0].Kind != ast.SuffixConstructor || r.Suffixes[1].Kind != ast.SuffixSelector {
		return false, "no selection over a constructor application"
	}
	c, sel := r.Suffixes[0].Name, r.Suffixes[1]
	sig, ok := ctx.Constructors[c]
	decl, okSel := ctx.Selectors[sel.Name]
	if !ok || !okSel {
		return false, ""
	}
	if !ctx.Recursive[c] {
		return false, fmt.Sprintf("constructor %s is not recursive", c)
	}
	// The selector's formals stand for the application's actuals: a
	// constant, or a query parameter (a bare name in scalar position).
	actual := func(t ast.Term) ast.Term {
		p, ok := t.(ast.Param)
		if !ok {
			return t
		}
		for i, fp := range decl.Params {
			switch a := sel.Args[i]; {
			case fp.Name != p.Name:
			case a.Scalar != nil:
				return a.Scalar
			case a.Rel.Sub == nil && len(a.Rel.Suffixes) == 0:
				return ast.Param{Name: a.Rel.Var, Pos: a.Rel.Pos}
			}
		}
		return nil
	}
	return restrict(q, ctx, r,
		boundTerms(decl.Where, decl.BodyVar, eval.SelectorElem(decl, sig.Result.Element), actual))
}

// boundTerms returns, per attribute of elem, the constant or parameter a
// top-level equality conjunct of pred equates v's attribute with (nil for
// none), each other side mapped through actual first.
func boundTerms(pred ast.Pred, v string, elem schema.RecordType, actual func(ast.Term) ast.Term) []ast.Term {
	out := make([]ast.Term, elem.Arity())
	for _, c := range ast.Conjuncts(pred) {
		cmp, ok := c.(ast.Cmp)
		if !ok || cmp.Op != ast.OpEq {
			continue
		}
		for _, side := range [][2]ast.Term{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
			f, ok := side[0].(ast.Field)
			pos := elem.IndexOf(f.Attr)
			if !ok || f.Var != v || pos < 0 || out[pos] != nil {
				continue
			}
			switch t := actual(side[1]).(type) {
			case ast.Const, ast.Param:
				out[pos] = t
			}
		}
	}
	return out
}

// MagicPlan is the restriction the propagate pass applied: the query's
// application Base{Constructor} became Base{Goal(Bindings)} over the
// generated declarations.
type MagicPlan struct {
	*Restriction
	// Constructor is the restricted recursive constructor, Base the relation
	// variable it is applied to.
	Constructor string
	Base        string
	// BoundAttrs are the bound result attributes; Bindings the constant or
	// parameter each is bound to, as written.
	BoundAttrs []string
	Bindings   []string
}

// Unrestrict returns a copy of r with the restricted application put back:
// Base{Goal(...)} becomes Base{Constructor} again.
func (m *MagicPlan) Unrestrict(r *ast.Range) *ast.Range {
	out := ast.CopyRange(r)
	ast.WalkRange(out, func(rr *ast.Range) {
		for i, s := range rr.Suffixes {
			if s.Kind == ast.SuffixConstructor && s.Name == m.Goal {
				rr.Suffixes[i] = ast.Suffix{Kind: ast.SuffixConstructor, Name: m.Constructor, Pos: s.Pos}
			}
		}
	})
	return out
}

// restrict rewrites rng, the application Base{c}..., into Base{c__ad(values)}...
// for the values bound holds per result attribute, and records the plan.
func restrict(q *Query, ctx *Context, rng *ast.Range, bound []ast.Term) (bool, string) {
	app := rng.Suffixes[0]
	if _, isVar := ctx.VarType(rng.Var); !isVar {
		return false, fmt.Sprintf("base of %s is not a relation variable", app.Name)
	}
	if len(app.Args) != 0 {
		return false, fmt.Sprintf("constructor %s takes arguments", app.Name)
	}
	if q.Magic != nil {
		return false, "one application per query is restricted"
	}
	m := &MagicPlan{Constructor: app.Name, Base: rng.Var}
	var ad strings.Builder
	var args []ast.Arg
	for i, t := range bound {
		if t == nil {
			ad.WriteByte('f')
			continue
		}
		ad.WriteByte('b')
		m.BoundAttrs = append(m.BoundAttrs, ctx.Constructors[app.Name].Result.Element.Attrs[i].Name)
		m.Bindings = append(m.Bindings, t.String())
		args = append(args, ast.Arg{Scalar: t})
	}
	if args == nil {
		return false, fmt.Sprintf("no attribute of %s is bound to a constant or parameter", app.Name)
	}
	res, err := Restrict(ctx.Constructors, ctx.Recursive, app.Name, ad.String())
	if err != nil {
		return false, err.Error()
	}
	m.Restriction = res
	rng.Suffixes[0] = ast.Suffix{Kind: ast.SuffixConstructor, Name: res.Goal, Args: args, Pos: app.Pos}
	q.Magic = m
	return true, fmt.Sprintf("restricted %s to %s=%s via %s", app.Name,
		strings.Join(m.BoundAttrs, ","), strings.Join(m.Bindings, ","), strings.Join(res.Adorned, ", "))
}

// pushBranch specializes the branch EACH v IN Base{c}: pred, c the
// non-recursive constructor of sig, whole-tuple projection and pred ranging
// only over v, into c's body with pred propagated into every body branch
// (section 4 cases 1-3) and the formal base variable replaced by Base.
func pushBranch(br *ast.Branch, sig *typecheck.ConstructorSig, ctx *Context) ([]ast.Branch, string) {
	bd := br.Binds[0]
	rng := bd.Range
	if br.Target != nil || len(rng.Suffixes[0].Args) != 0 {
		return nil, ""
	}
	if _, isVar := ctx.VarType(rng.Var); !isVar {
		return nil, ""
	}
	for fv := range eval.FreeVarsOfPred(br.Where) {
		if fv != bd.Var {
			return nil, ""
		}
	}
	decl := sig.Decl
	// Literal body branches would bypass the pushed predicate; the session
	// layer does not re-filter, so decline.
	for _, bb := range decl.Body.Branches {
		if bb.Literal != nil {
			return nil, fmt.Sprintf("constructor %s has literal branches", decl.Name)
		}
		for _, innerBind := range bb.Binds {
			if innerBind.Var == decl.ForVar {
				return nil, ""
			}
		}
	}
	forElem := sig.ForType.Element
	elemOf := func(r *ast.Range) (schema.RecordType, bool) {
		if r.Sub == nil && r.Var == decl.ForVar {
			if len(r.Suffixes) == 0 {
				return forElem, true
			}
			return schema.RecordType{}, false
		}
		return ctx.ElemOf(r)
	}
	specialized, err := PushSelection(decl, sig.Result.Element, bd.Var, br.Where, elemOf,
		func(name string) *ast.SelectorDecl { return ctx.Selectors[name] })
	if err != nil {
		return nil, fmt.Sprintf("constructor %s: %v", decl.Name, err)
	}
	body := ast.CopySetExpr(specialized.Body)
	ast.SubstituteRangeVar(body, decl.ForVar, ast.RangeVar(rng.Var))
	return body.Branches, fmt.Sprintf("pushed selection on %s into %s (%d branch(es))", bd.Var, decl.Name, len(body.Branches))
}
