package ast

import "repro/internal/value"

// This file provides structural traversal and deep-copy helpers used by the
// positivity analysis (section 3.3), the quant-graph builder (section 4), and
// the optimizer's rewrite rules (N1–N3 and constraint propagation).

// Conjuncts flattens the top-level ANDs of p into its conjuncts, left to
// right. A predicate that is not a conjunction is its own single conjunct.
func Conjuncts(p Pred) []Pred {
	if a, ok := p.(And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Pred{p}
}

// WalkRanges calls fn for every Range reachable from the set expression,
// including ranges nested inside quantifiers, membership predicates, suffix
// arguments, and sub-expressions.
func WalkRanges(s *SetExpr, fn func(*Range)) {
	if s == nil {
		return
	}
	for i := range s.Branches {
		br := &s.Branches[i]
		for j := range br.Binds {
			WalkRange(br.Binds[j].Range, fn)
		}
		if br.Where != nil {
			WalkPredRanges(br.Where, fn)
		}
	}
}

// WalkRange calls fn for r and every Range reachable from it: its
// sub-expression and its suffix arguments, recursively.
func WalkRange(r *Range, fn func(*Range)) {
	if r == nil {
		return
	}
	fn(r)
	if r.Sub != nil {
		WalkRanges(r.Sub, fn)
	}
	for i := range r.Suffixes {
		for j := range r.Suffixes[i].Args {
			if rel := r.Suffixes[i].Args[j].Rel; rel != nil {
				WalkRange(rel, fn)
			}
		}
	}
}

// WalkPredRanges calls fn for every Range reachable from the predicate, as
// WalkRanges does for a set expression.
func WalkPredRanges(p Pred, fn func(*Range)) {
	switch q := p.(type) {
	case And:
		WalkPredRanges(q.L, fn)
		WalkPredRanges(q.R, fn)
	case Or:
		WalkPredRanges(q.L, fn)
		WalkPredRanges(q.R, fn)
	case Not:
		WalkPredRanges(q.P, fn)
	case Quant:
		WalkRange(q.Range, fn)
		WalkPredRanges(q.Body, fn)
	case Member:
		WalkRange(q.Range, fn)
	}
}

// ---------------------------------------------------------------------------
// Deep copies
// ---------------------------------------------------------------------------

// CopySetExpr returns a structurally independent deep copy.
func CopySetExpr(s *SetExpr) *SetExpr {
	if s == nil {
		return nil
	}
	out := &SetExpr{Pos: s.Pos, Elem: s.Elem, Branches: make([]Branch, len(s.Branches))}
	for i, br := range s.Branches {
		out.Branches[i] = CopyBranch(br)
	}
	return out
}

// CopyBranch deep-copies a branch.
func CopyBranch(br Branch) Branch {
	out := Branch{Pos: br.Pos}
	if br.Literal != nil {
		out.Literal = copyTerms(br.Literal)
		return out
	}
	if br.Target != nil {
		out.Target = copyTerms(br.Target)
	}
	out.Binds = make([]Binding, len(br.Binds))
	for i, b := range br.Binds {
		out.Binds[i] = Binding{Var: b.Var, Range: CopyRange(b.Range), Pos: b.Pos}
	}
	if br.Where != nil {
		out.Where = CopyPred(br.Where)
	}
	return out
}

// CopyRange deep-copies a range.
func CopyRange(r *Range) *Range {
	if r == nil {
		return nil
	}
	out := &Range{Var: r.Var, Elem: r.Elem, Pos: r.Pos}
	if r.Sub != nil {
		out.Sub = CopySetExpr(r.Sub)
	}
	out.Suffixes = make([]Suffix, len(r.Suffixes))
	for i, s := range r.Suffixes {
		args := make([]Arg, len(s.Args))
		for j, a := range s.Args {
			if a.Rel != nil {
				args[j] = Arg{Rel: CopyRange(a.Rel)}
			} else {
				args[j] = Arg{Scalar: CopyTerm(a.Scalar)}
			}
		}
		out.Suffixes[i] = Suffix{Kind: s.Kind, Name: s.Name, Args: args, Pos: s.Pos}
	}
	return out
}

// CopyPred deep-copies a predicate.
func CopyPred(p Pred) Pred {
	switch q := p.(type) {
	case BoolLit:
		return q
	case Cmp:
		return Cmp{Op: q.Op, L: CopyTerm(q.L), R: CopyTerm(q.R)}
	case And:
		return And{L: CopyPred(q.L), R: CopyPred(q.R)}
	case Or:
		return Or{L: CopyPred(q.L), R: CopyPred(q.R)}
	case Not:
		return Not{P: CopyPred(q.P)}
	case Quant:
		return Quant{All: q.All, Var: q.Var, Range: CopyRange(q.Range),
			Body: CopyPred(q.Body), Pos: q.Pos}
	case Member:
		return Member{VarTuple: q.VarTuple, Terms: copyTerms(q.Terms),
			Range: CopyRange(q.Range), Pos: q.Pos}
	default:
		panic("ast: CopyPred: unknown predicate type")
	}
}

// CopyTerm deep-copies a term.
func CopyTerm(t Term) Term {
	switch u := t.(type) {
	case Const:
		return u
	case Field:
		return u
	case Param:
		return u
	case Arith:
		return Arith{Op: u.Op, L: CopyTerm(u.L), R: CopyTerm(u.R)}
	default:
		panic("ast: CopyTerm: unknown term type")
	}
}

func copyTerms(ts []Term) []Term {
	if ts == nil {
		return nil
	}
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = CopyTerm(t)
	}
	return out
}

// ---------------------------------------------------------------------------
// Substitution helpers
// ---------------------------------------------------------------------------

// SubstituteRangeVar rewrites, in place, every Range whose base Var equals
// name so that its base becomes the given replacement range's base and the
// replacement's suffixes are prepended to the original suffixes. It is the
// mechanism by which formal base-relation and relation-parameter names are
// replaced with actual ranges when a constructor is applied (section 3.2:
// "replacing all formal parameters by their actual values").
func SubstituteRangeVar(s *SetExpr, name string, repl *Range) {
	WalkRanges(s, func(r *Range) {
		if r.Var != name {
			return
		}
		rc := CopyRange(repl)
		r.Var = rc.Var
		r.Sub = rc.Sub
		r.Suffixes = append(rc.Suffixes, r.Suffixes...)
	})
}

// SubstituteScalarParam replaces every Param term named name with the given
// constant value, in place, across the whole set expression.
func SubstituteScalarParam(s *SetExpr, name string, v value.Value) {
	for i := range s.Branches {
		br := &s.Branches[i]
		br.Literal = substTerms(br.Literal, name, v)
		br.Target = substTerms(br.Target, name, v)
		if br.Where != nil {
			br.Where = substPred(br.Where, name, v)
		}
		for j := range br.Binds {
			substRangeParams(br.Binds[j].Range, name, v)
		}
	}
}

func substRangeParams(r *Range, name string, v value.Value) {
	if r == nil {
		return
	}
	if r.Sub != nil {
		SubstituteScalarParam(r.Sub, name, v)
	}
	for i := range r.Suffixes {
		for j := range r.Suffixes[i].Args {
			a := &r.Suffixes[i].Args[j]
			if a.Rel != nil {
				substRangeParams(a.Rel, name, v)
			} else {
				a.Scalar = substTerm(a.Scalar, name, v)
			}
		}
	}
}

func substTerms(ts []Term, name string, v value.Value) []Term {
	for i, t := range ts {
		ts[i] = substTerm(t, name, v)
	}
	return ts
}

func substTerm(t Term, name string, v value.Value) Term {
	switch u := t.(type) {
	case Param:
		if u.Name == name {
			return Const{Val: v}
		}
		return u
	case Arith:
		return Arith{Op: u.Op, L: substTerm(u.L, name, v), R: substTerm(u.R, name, v)}
	default:
		return t
	}
}

func substPred(p Pred, name string, v value.Value) Pred {
	switch q := p.(type) {
	case BoolLit:
		return q
	case Cmp:
		return Cmp{Op: q.Op, L: substTerm(q.L, name, v), R: substTerm(q.R, name, v)}
	case And:
		return And{L: substPred(q.L, name, v), R: substPred(q.R, name, v)}
	case Or:
		return Or{L: substPred(q.L, name, v), R: substPred(q.R, name, v)}
	case Not:
		return Not{P: substPred(q.P, name, v)}
	case Quant:
		substRangeParams(q.Range, name, v)
		q.Body = substPred(q.Body, name, v)
		return q
	case Member:
		q.Terms = substTerms(q.Terms, name, v)
		substRangeParams(q.Range, name, v)
		return q
	default:
		panic("ast: substPred: unknown predicate type")
	}
}
