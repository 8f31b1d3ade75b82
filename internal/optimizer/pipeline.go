package optimizer

// The pass pipeline: the section-4 rewrites packaged as one fixed, ordered
// sequence of named passes over one query. The session layer (package dbpl)
// runs the pipeline at Prepare time and exposes the resulting trace through
// EXPLAIN; the order is
//
//	flatten -> pushdown -> magic -> nest
//
// mirroring the paper's workflow: flatten nested ranges "to understand and
// optimize a query in terms of base relations", propagate selections into
// non-recursive constructor definitions while the predicates sit at the top
// level (section 4 cases 1-3), restrict recursive constructor applications
// to the query's bound constants (magic sets, the modern form of the
// capture-rule/compiled-recursion techniques the paper cites for cyclic
// subgraphs), and finally re-nest restrictive conjuncts (rules N1-N3) so
// evaluation filters early. Nest runs last because it moves conjuncts into
// nested ranges — the exact shape pushdown's pattern match needs undone.

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/horn"
	"repro/internal/prolog"
	"repro/internal/schema"
	"repro/internal/typecheck"
	"repro/internal/value"
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
// copy made by the session layer). Magic is filled by the magic-sets pass when
// a recursive constructor application can be restricted to a bound constant;
// the execution layer checks it before evaluating.
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
	return []Pass{flattenPass{}, pushdownPass{}, magicPass{}, nestPass{}}
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
		nb, n := NestBranch(s.Branches[i], "")
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
// pushdown — section 4 cases 1-3 via PushSelection, inlined
// ---------------------------------------------------------------------------

type pushdownPass struct{}

func (pushdownPass) Name() string { return "pushdown" }

func (pushdownPass) Run(q *Query, ctx *Context) (bool, string, error) {
	if ctx == nil {
		return false, "no declaration context", nil
	}
	s := q.Rng.Sub
	if s == nil {
		return false, "no set expression", nil
	}
	var details []string
	var out []ast.Branch
	applied := false
	for i := range s.Branches {
		nb, ok, why := pushBranch(&s.Branches[i], ctx)
		if ok {
			applied = true
			out = append(out, nb...)
			details = append(details, why)
		} else {
			out = append(out, s.Branches[i])
			if why != "" {
				details = append(details, why)
			}
		}
	}
	if !applied {
		if len(details) == 0 {
			details = append(details, "no selection over a non-recursive constructor")
		}
		return false, strings.Join(details, "; "), nil
	}
	s.Branches = out
	return true, strings.Join(details, "; "), nil
}

// pushBranch tries to specialize one branch of the canonical shape
//
//	EACH v IN Base{c}: pred
//
// (single binding over a zero-argument, non-recursive constructor applied to
// a plain relation variable, whole-tuple projection, pred ranging only over
// v) into the constructor's body with pred propagated into every body branch
// (section 4 cases 1-3) and the formal base variable replaced by Base.
func pushBranch(br *ast.Branch, ctx *Context) ([]ast.Branch, bool, string) {
	if br.Literal != nil || br.Target != nil || len(br.Binds) != 1 || br.Where == nil {
		return nil, false, ""
	}
	bd := br.Binds[0]
	rng := bd.Range
	if rng.Sub != nil || len(rng.Suffixes) != 1 {
		return nil, false, ""
	}
	suf := rng.Suffixes[0]
	if suf.Kind != ast.SuffixConstructor || len(suf.Args) != 0 {
		return nil, false, ""
	}
	if ctx.Recursive[suf.Name] {
		return nil, false, fmt.Sprintf("constructor %s is recursive (magic-sets path applies)", suf.Name)
	}
	sig, ok := ctx.Constructors[suf.Name]
	if !ok {
		return nil, false, ""
	}
	if _, isVar := ctx.VarType(rng.Var); !isVar {
		return nil, false, ""
	}
	for fv := range eval.FreeVarsOfPred(br.Where) {
		if fv != bd.Var {
			return nil, false, ""
		}
	}
	decl := sig.Decl
	// Literal body branches would bypass the pushed predicate; the session
	// layer does not re-filter, so decline.
	for _, bb := range decl.Body.Branches {
		if bb.Literal != nil {
			return nil, false, fmt.Sprintf("constructor %s has literal branches", suf.Name)
		}
		for _, innerBind := range bb.Binds {
			if innerBind.Var == decl.ForVar {
				return nil, false, ""
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
	specialized, err := PushSelection(decl, sig.Result.Element, bd.Var, br.Where, elemOf)
	if err != nil {
		return nil, false, fmt.Sprintf("constructor %s: %v", suf.Name, err)
	}
	body := ast.CopySetExpr(specialized.Body)
	ast.SubstituteRangeVar(body, decl.ForVar, ast.RangeVar(rng.Var))
	return body.Branches, true,
		fmt.Sprintf("pushed selection on %s into %s (%d branch(es))", bd.Var, suf.Name, len(body.Branches))
}

// ---------------------------------------------------------------------------
// magic — bound-argument restriction for recursive constructors
// ---------------------------------------------------------------------------

// MagicPlan is the prepared magic-sets execution of a range query head
//
//	Base{c}[sel(const)]...
//
// where c is recursive. The head (constructor application plus nothing) is
// replaced at execution time by the fixpoint of the magic-transformed Horn
// translation, seeded with the selector's constant, and every suffix from the
// selector onward is applied unchanged to the (much smaller) restricted
// result — the original selector acts as the final filter that makes the
// restriction exact.
type MagicPlan struct {
	// Constructor is the recursive constructor whose application is replaced.
	Constructor string
	// BasePred names the EDB predicate fed from the base relation's value.
	BasePred string
	// Bundle holds the reverse-translated constructor system (horn.ToConstructors)
	// of the magic-transformed program.
	Bundle *horn.Bundle
	// GoalPred / GoalCons name the adorned goal predicate and its constructor.
	GoalPred string
	GoalCons string
	// Result is the original constructor's result type; the restricted
	// relation is re-labelled to it before the remaining suffixes run.
	Result schema.RelationType
	// BoundAttr / BoundPos locate the bound result attribute; Const is the
	// binding constant from the selector application.
	BoundAttr string
	BoundPos  int
	Const     value.Value
	// SuffixFrom is the index of the first suffix (the selector) that still
	// runs over the restricted result.
	SuffixFrom int
	// Adorned lists the adorned predicates, for EXPLAIN.
	Adorned []string
}

type magicPass struct{}

func (magicPass) Name() string { return "magic" }

func (magicPass) Run(q *Query, ctx *Context) (bool, string, error) {
	if ctx == nil || q.Rng.Sub != nil || len(q.Rng.Suffixes) < 2 {
		return false, "query is not Base{c}[sel(const)]", nil
	}
	rng := q.Rng
	cons := rng.Suffixes[0]
	sel := rng.Suffixes[1]
	if cons.Kind != ast.SuffixConstructor || sel.Kind != ast.SuffixSelector {
		return false, "query is not Base{c}[sel(const)]", nil
	}
	if !ctx.Recursive[cons.Name] {
		return false, fmt.Sprintf("constructor %s is not recursive", cons.Name), nil
	}
	if len(cons.Args) != 0 {
		return false, fmt.Sprintf("constructor %s takes arguments", cons.Name), nil
	}
	sig, ok := ctx.Constructors[cons.Name]
	if !ok {
		return false, "", nil
	}
	baseType, ok := ctx.VarType(rng.Var)
	if !ok {
		return false, fmt.Sprintf("base %s is not a relation variable", rng.Var), nil
	}
	decl, ok := ctx.Selectors[sel.Name]
	if !ok || len(sel.Args) != 1 {
		return false, "selector shape not indexable", nil
	}
	cst, ok := sel.Args[0].Scalar.(ast.Const)
	if !ok {
		return false, "selector argument is not a constant (parameter-bound queries run unrestricted)", nil
	}
	attr, _ := eval.SelectorAccess(decl, rng, 1)
	if attr == "" {
		return false, fmt.Sprintf("selector %s has no indexable equality", sel.Name), nil
	}
	// The selector reads the constructed result through its For-type; the
	// bound position is positional across the re-labelling.
	pos := eval.SelectorElem(decl, sig.Result.Element).IndexOf(attr)
	if pos < 0 || pos >= sig.Result.Element.Arity() {
		return false, fmt.Sprintf("attribute %s not positional in result", attr), nil
	}
	// The Horn reverse translation types every predicate with one scalar
	// type; require a homogeneous scalar domain matching the constant.
	scalar, ok := homogeneousScalar(baseType.Element, sig.Result.Element)
	if !ok || scalar.Kind != cst.Val.Kind() {
		return false, "heterogeneous attribute domains (translation is single-typed)", nil
	}

	basePred := "base_" + strings.ToLower(rng.Var)
	sigs := map[string]*typecheck.ConstructorSig{}
	for n, s := range ctx.Constructors {
		sigs[n] = s
	}
	tr, err := horn.FromApplication(sigs, cons.Name,
		horn.RelPred{Pred: basePred, Elem: baseType.Element}, nil)
	if err != nil {
		return false, "", fmt.Errorf("horn translation: %w", err)
	}
	goalArgs := make([]prolog.Term, sig.Result.Element.Arity())
	for i := range goalArgs {
		if i == pos {
			goalArgs[i] = prolog.C(cst.Val)
		} else {
			goalArgs[i] = prolog.V(i)
		}
	}
	prog := prolog.NewProgram(tr.Rules...)
	res, err := MagicTransform(prog, prolog.NewAtom(tr.GoalPred, goalArgs...))
	if err != nil {
		return false, "", fmt.Errorf("magic transform: %w", err)
	}
	bundle, err := horn.ToConstructors(res.Program, scalar)
	if err != nil {
		return false, "", fmt.Errorf("reverse translation: %w", err)
	}
	if _, ok := bundle.Decls[res.Goal.Pred]; !ok {
		return false, "goal predicate lost in reverse translation", nil
	}
	q.Magic = &MagicPlan{
		Constructor: cons.Name,
		BasePred:    basePred,
		Bundle:      bundle,
		GoalPred:    res.Goal.Pred,
		GoalCons:    horn.ConstructorName(res.Goal.Pred),
		Result:      sig.Result,
		BoundAttr:   attr,
		BoundPos:    pos,
		Const:       cst.Val,
		SuffixFrom:  1,
		Adorned:     res.Adorned,
	}
	return true, fmt.Sprintf("restricted %s to %s=%s via %d adorned predicate(s)",
		cons.Name, attr, cst.Val, len(res.Adorned)), nil
}

// homogeneousScalar returns the single scalar type shared by every attribute
// of the given record types, if there is one.
func homogeneousScalar(elems ...schema.RecordType) (schema.ScalarType, bool) {
	var first schema.ScalarType
	seen := false
	for _, e := range elems {
		for _, a := range e.Attrs {
			if !seen {
				first = a.Type
				seen = true
				continue
			}
			if a.Type.Kind != first.Kind {
				return schema.ScalarType{}, false
			}
		}
	}
	return first, seen
}
