// Package optimizer implements the query-compilation-level rewrites of
// section 4 of the paper:
//
//   - the range nesting rules N1–N3 of [JaKo 83] (this file), which move
//     restrictive conjuncts between predicates and range expressions;
//
//   - the constraint-propagation cases 1–3 (cases.go), which push a
//     selection predicate on a constructed relation into the constructor
//     definition ("propagating the constraints given by pred(r) into the
//     constructor definition may considerably reduce query evaluation
//     costs");
//
//   - the bound-argument restriction for recursive constructors (magic.go),
//     realized as the magic-sets transformation written over the constructor
//     declarations themselves — the modern form of the "capture
//     rules"/[HeNa 84] compiled-recursion techniques the paper cites for
//     cyclic subgraphs;
//
//   - the pass pipeline that applies them to a prepared query (pipeline.go).
package optimizer

import (
	"repro/internal/ast"
	"repro/internal/eval"
)

// varsOf returns the free tuple variables of a predicate.
func varsOf(p ast.Pred) map[string]bool { return eval.FreeVarsOfPred(p) }

// onlyVar reports whether pred's free tuple variables are within {v}.
func onlyVar(p ast.Pred, v string) bool {
	for fv := range varsOf(p) {
		if fv != v {
			return false
		}
	}
	return true
}

func conjoin(ps []ast.Pred) ast.Pred {
	if len(ps) == 0 {
		return ast.BoolLit{Val: true}
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = ast.And{L: out, R: p}
	}
	return out
}

// NestBranch applies rule N1 to one branch: every top-level conjunct whose
// free variables lie within a single binding's variable is moved into a
// nested range expression
//
//	{EACH r IN R: pred1 AND pred2}  ==>  {EACH r IN {EACH r' IN R: pred1}: pred2}
//
// The input is not modified; the rewritten branch is returned together with
// the number of conjuncts moved.
func NestBranch(br ast.Branch) (ast.Branch, int) {
	if br.Literal != nil || br.Where == nil {
		return ast.CopyBranch(br), 0
	}
	out := ast.CopyBranch(br)
	moved := 0
	var residual []ast.Pred
	conj := ast.Conjuncts(out.Where)
	for _, c := range conj {
		placed := false
		for i := range out.Binds {
			bd := &out.Binds[i]
			if !onlyVar(c, bd.Var) {
				continue
			}
			// Skip trivial TRUE conjuncts.
			if b, ok := c.(ast.BoolLit); ok && b.Val {
				break
			}
			inner := renameVar(c, bd.Var, bd.Var+"_n")
			bd.Range = &ast.Range{Sub: &ast.SetExpr{Branches: []ast.Branch{{
				Binds: []ast.Binding{{Var: bd.Var + "_n", Range: bd.Range}},
				Where: inner,
			}}}}
			moved++
			placed = true
			break
		}
		if !placed {
			residual = append(residual, c)
		}
	}
	out.Where = conjoin(residual)
	return out, moved
}

// NestQuant applies rules N2/N3 to one quantifier:
//
//	SOME r IN R (p1 AND p2)          ==> SOME r IN {EACH r' IN R: p1} (p2)
//	ALL  r IN R (NOT(p1) OR p2)      ==> ALL  r IN {EACH r' IN R: p1} (p2)
//
// where p1 ranges only over r. It returns the rewritten quantifier and
// whether a rewrite happened.
func NestQuant(q ast.Quant) (ast.Quant, bool) {
	out := ast.CopyPred(q).(ast.Quant)
	if !q.All {
		conj := ast.Conjuncts(out.Body)
		var movable, residual []ast.Pred
		for _, c := range conj {
			if onlyVar(c, out.Var) && !isTrue(c) {
				movable = append(movable, c)
			} else {
				residual = append(residual, c)
			}
		}
		if len(movable) == 0 {
			return out, false
		}
		inner := renameVar(conjoin(movable), out.Var, out.Var+"_n")
		out.Range = &ast.Range{Sub: &ast.SetExpr{Branches: []ast.Branch{{
			Binds: []ast.Binding{{Var: out.Var + "_n", Range: out.Range}},
			Where: inner,
		}}}}
		out.Body = conjoin(residual)
		return out, true
	}
	// N3: ALL r IN R (NOT(p1) OR p2).
	or, ok := out.Body.(ast.Or)
	if !ok {
		return out, false
	}
	not, ok := or.L.(ast.Not)
	if !ok || !onlyVar(not.P, out.Var) {
		return out, false
	}
	inner := renameVar(not.P, out.Var, out.Var+"_n")
	out.Range = &ast.Range{Sub: &ast.SetExpr{Branches: []ast.Branch{{
		Binds: []ast.Binding{{Var: out.Var + "_n", Range: out.Range}},
		Where: inner,
	}}}}
	out.Body = or.R
	return out, true
}

// FlattenBranch applies the <== direction of N1: bindings whose range is a
// single-branch, single-binding nested set expression without a target list
// are flattened back into conjuncts of the outer predicate. This is the form
// the paper uses "to understand and optimize a query in terms of base
// relations".
func FlattenBranch(br ast.Branch) (ast.Branch, int) {
	if br.Literal != nil {
		return ast.CopyBranch(br), 0
	}
	out := ast.CopyBranch(br)
	flattened := 0
	var extra []ast.Pred
	for i := range out.Binds {
		bd := &out.Binds[i]
		for bd.Range.Sub != nil && len(bd.Range.Suffixes) == 0 &&
			len(bd.Range.Sub.Branches) == 1 {
			inner := bd.Range.Sub.Branches[0]
			if inner.Literal != nil || inner.Target != nil || len(inner.Binds) != 1 {
				break
			}
			pred := renameVar(inner.Where, inner.Binds[0].Var, bd.Var)
			if !isTrue(pred) {
				extra = append(extra, pred)
			}
			bd.Range = inner.Binds[0].Range
			flattened++
		}
	}
	if len(extra) > 0 {
		all := append(ast.Conjuncts(out.Where), extra...)
		out.Where = conjoin(all)
	}
	return out, flattened
}

// Flatten applies FlattenBranch across a whole set expression.
func Flatten(s *ast.SetExpr) (*ast.SetExpr, int) {
	out := &ast.SetExpr{Pos: s.Pos}
	total := 0
	for _, br := range s.Branches {
		fb, n := FlattenBranch(br)
		total += n
		out.Branches = append(out.Branches, fb)
	}
	return out, total
}

func isTrue(p ast.Pred) bool {
	b, ok := p.(ast.BoolLit)
	return ok && b.Val
}

// renameVar renames a tuple variable inside a predicate.
func renameVar(p ast.Pred, from, to string) ast.Pred {
	switch q := p.(type) {
	case ast.BoolLit:
		return q
	case ast.Cmp:
		return ast.Cmp{Op: q.Op, L: renameVarTerm(q.L, from, to), R: renameVarTerm(q.R, from, to)}
	case ast.And:
		return ast.And{L: renameVar(q.L, from, to), R: renameVar(q.R, from, to)}
	case ast.Or:
		return ast.Or{L: renameVar(q.L, from, to), R: renameVar(q.R, from, to)}
	case ast.Not:
		return ast.Not{P: renameVar(q.P, from, to)}
	case ast.Quant:
		if q.Var == from {
			return q // shadowed
		}
		return ast.Quant{All: q.All, Var: q.Var, Range: q.Range,
			Body: renameVar(q.Body, from, to), Pos: q.Pos}
	case ast.Member:
		vt := q.VarTuple
		if vt == from {
			vt = to
		}
		terms := make([]ast.Term, len(q.Terms))
		for i, t := range q.Terms {
			terms[i] = renameVarTerm(t, from, to)
		}
		return ast.Member{VarTuple: vt, Terms: terms, Range: q.Range, Pos: q.Pos}
	default:
		return p
	}
}

func renameVarTerm(t ast.Term, from, to string) ast.Term {
	switch u := t.(type) {
	case ast.Field:
		if u.Var == from {
			return ast.Field{Var: to, Attr: u.Attr, Pos: u.Pos}
		}
		return u
	case ast.Arith:
		return ast.Arith{Op: u.Op, L: renameVarTerm(u.L, from, to), R: renameVarTerm(u.R, from, to)}
	default:
		return t
	}
}
