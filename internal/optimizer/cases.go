package optimizer

// Constraint propagation into constructor definitions — the case analysis of
// section 4:
//
//	Case 1 (Selector): single relational expression, single free variable —
//	  rules N1..N3 apply directly (plus projection on target attributes).
//	Case 2 (Join): single relational expression, several variables —
//	  substitute r.f in pred(r) by x.g if x.g appears at position f of the
//	  constructor's target list.
//	Case 3 (Union): a union of relational expressions — if pred(r) satisfies
//	  the positivity constraint, treat each branch separately and union the
//	  results.
//
// PushSelection implements all three uniformly: per branch, the selection
// predicate over the result tuple is rewritten through the branch's target
// list and conjoined with the branch predicate. The rewrite is valid for
// non-recursive constructors only (filtering intermediate results of a
// recursive constructor loses derivations); a recursive constructor is
// restricted instead, by adorning its declaration (Restrict, magic.go).

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/positivity"
	"repro/internal/schema"
)

// ElemResolver resolves the element type of a range expression; typecheck
// supplies one. It is needed for whole-tuple branches whose range attribute
// names differ from the result attribute names (ahead's first branch yields
// infrontrel tuples (front, back) for an aheadrel result (head, tail)).
type ElemResolver func(*ast.Range) (schema.RecordType, bool)

// PushSelection specializes a constructor declaration for the query
// {EACH resultVar IN Rel{c}: pred}. pred refers to result attributes through
// resultVar, typed by resultElem. The returned declaration computes exactly
// the selected subset. elemOf may be nil when all whole-tuple branches range
// over relations whose attribute names equal the result's; sels resolves the
// selectors pred applies for its positivity check.
func PushSelection(decl *ast.ConstructorDecl, resultElem schema.RecordType,
	resultVar string, pred ast.Pred, elemOf ElemResolver, sels positivity.Selectors) (*ast.ConstructorDecl, error) {

	// Recursion guard: any constructor suffix in the body disqualifies.
	recursive := false
	ast.WalkRanges(decl.Body, func(r *ast.Range) {
		for _, s := range r.Suffixes {
			if s.Kind == ast.SuffixConstructor {
				recursive = true
			}
		}
	})
	if recursive {
		return nil, fmt.Errorf("optimizer: constructor %q is recursive; restrict it instead", decl.Name)
	}
	// Case 3 requires positivity of the selection predicate; otherwise the
	// constructed relation must be computed fully first (the paper cites
	// [JaKo 83] for the counterexamples).
	if rep := positivity.CheckPred(pred, nil, sels); !rep.Positive() {
		return nil, fmt.Errorf("optimizer: selection predicate violates positivity; compute the constructed relation fully (section 4 case 3)")
	}

	out := &ast.ConstructorDecl{
		Name:    decl.Name + "_selected",
		ForVar:  decl.ForVar,
		ForType: decl.ForType,
		Params:  decl.Params,
		Result:  decl.Result,
		Pos:     decl.Pos,
		Body:    &ast.SetExpr{},
	}
	for _, br := range decl.Body.Branches {
		nb, err := pushIntoBranch(br, resultElem, resultVar, pred, elemOf)
		if err != nil {
			return nil, fmt.Errorf("optimizer: constructor %q: %w", decl.Name, err)
		}
		out.Body.Branches = append(out.Body.Branches, nb)
	}
	return out, nil
}

func pushIntoBranch(br ast.Branch, resultElem schema.RecordType,
	resultVar string, pred ast.Pred, elemOf ElemResolver) (ast.Branch, error) {

	out := ast.CopyBranch(br)
	if out.Literal != nil {
		// A literal tuple cannot carry a predicate; keep it and let the
		// residual filter handle it. (Constructors generated from queries
		// rarely have literal branches; the translation stays safe because
		// PushSelection callers re-filter literals.)
		return out, nil
	}
	// Build the substitution: result attribute -> term.
	subst := make(map[string]ast.Term, resultElem.Arity())
	if out.Target == nil {
		// Whole-tuple branch: result positions map to the first variable's
		// attributes positionally (Case 1).
		v := out.Binds[0].Var
		rangeElem := resultElem
		if elemOf != nil {
			if re, ok := elemOf(out.Binds[0].Range); ok {
				if re.Arity() != resultElem.Arity() {
					return ast.Branch{}, fmt.Errorf("branch range arity %d != result arity %d",
						re.Arity(), resultElem.Arity())
				}
				rangeElem = re
			}
		}
		for i, a := range resultElem.Attrs {
			subst[a.Name] = ast.Field{Var: v, Attr: rangeElem.Attrs[i].Name}
		}
	} else {
		if len(out.Target) != resultElem.Arity() {
			return ast.Branch{}, fmt.Errorf("target arity %d != result arity %d",
				len(out.Target), resultElem.Arity())
		}
		for i, a := range resultElem.Attrs {
			subst[a.Name] = out.Target[i]
		}
	}
	cond, err := substResultVar(pred, resultVar, subst)
	if err != nil {
		return ast.Branch{}, err
	}
	if out.Where == nil || isTrue(out.Where) {
		out.Where = cond
	} else {
		out.Where = ast.And{L: out.Where, R: cond}
	}
	return out, nil
}

func substResultVar(p ast.Pred, resultVar string, subst map[string]ast.Term) (ast.Pred, error) {
	switch q := p.(type) {
	case ast.BoolLit:
		return q, nil
	case ast.Cmp:
		l, err := substResultVarTerm(q.L, resultVar, subst)
		if err != nil {
			return nil, err
		}
		r, err := substResultVarTerm(q.R, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.Cmp{Op: q.Op, L: l, R: r}, nil
	case ast.And:
		l, err := substResultVar(q.L, resultVar, subst)
		if err != nil {
			return nil, err
		}
		r, err := substResultVar(q.R, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.And{L: l, R: r}, nil
	case ast.Or:
		l, err := substResultVar(q.L, resultVar, subst)
		if err != nil {
			return nil, err
		}
		r, err := substResultVar(q.R, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.Or{L: l, R: r}, nil
	case ast.Not:
		inner, err := substResultVar(q.P, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.Not{P: inner}, nil
	case ast.Quant:
		if q.Var == resultVar {
			return q, nil // shadowed
		}
		body, err := substResultVar(q.Body, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.Quant{All: q.All, Var: q.Var, Range: q.Range, Body: body, Pos: q.Pos}, nil
	case ast.Member:
		if q.VarTuple == resultVar {
			return nil, fmt.Errorf("whole-tuple membership of the result variable cannot be pushed")
		}
		terms := make([]ast.Term, len(q.Terms))
		for i, t := range q.Terms {
			nt, err := substResultVarTerm(t, resultVar, subst)
			if err != nil {
				return nil, err
			}
			terms[i] = nt
		}
		return ast.Member{VarTuple: q.VarTuple, Terms: terms, Range: q.Range, Pos: q.Pos}, nil
	default:
		return nil, fmt.Errorf("unknown predicate %T", p)
	}
}

func substResultVarTerm(t ast.Term, resultVar string, subst map[string]ast.Term) (ast.Term, error) {
	switch u := t.(type) {
	case ast.Field:
		if u.Var != resultVar {
			return u, nil
		}
		repl, ok := subst[u.Attr]
		if !ok {
			return nil, fmt.Errorf("result variable %q has no attribute %q in the substitution", resultVar, u.Attr)
		}
		return ast.CopyTerm(repl), nil
	case ast.Arith:
		l, err := substResultVarTerm(u.L, resultVar, subst)
		if err != nil {
			return nil, err
		}
		r, err := substResultVarTerm(u.R, resultVar, subst)
		if err != nil {
			return nil, err
		}
		return ast.Arith{Op: u.Op, L: l, R: r}, nil
	default:
		return t, nil
	}
}
