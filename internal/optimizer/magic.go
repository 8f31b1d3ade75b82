package optimizer

// Bound-argument restriction of recursive constructors: magic sets written
// directly over constructor declarations.
//
// Section 4 observes that fully computing a constructed relation and then
// testing pred(r) is the "easiest solution", while propagating constraints
// into the definition "may considerably reduce query evaluation costs"; for
// recursive cycles it points at compiled-recursion techniques ([HeNa 84],
// capture rules [Ullm 84]). Magic sets is the canonical such technique, and a
// constructor body already is a set of conjunctive rules, so the technique
// applies to the declarations themselves. For a goal c whose result
// attributes at the 'b' positions of an adornment ad are given, Restrict
// generates, for every (constructor, adornment) pair the goal reaches,
//
//	CONSTRUCTOR c__ad FOR Rel: T (B1: t1; ...; Bk: tk): R;
//	CONSTRUCTOR m__c__ad FOR Rel: T (B1: t1; ...; Bk: tk): RELATION OF RECORD <bound attributes> END;
//
// c__ad's branches are c's, each joined with its magic constructor on the
// bound head attributes, with every recursive call adorned by the attributes
// bound where it occurs; m__d__ad' collects the bindings of the calls to
// d__ad' (the magic rules), and the goal's magic constructor has the seed
// branch <B1, ..., Bk>. The B's — the goal's bound values — are threaded
// through every generated constructor unchanged, so one application
// Base{c__ad(v1, ..., vk)} is one grounded system, solved by the ordinary
// fixpoint engine.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/typecheck"
)

// Restriction is the declaration system Restrict generates for one goal.
type Restriction struct {
	// Goal names the adorned goal constructor c__ad. Applied to the bound
	// values, it yields a subset of c's value that holds every tuple of c
	// carrying them.
	Goal string
	// Adorned lists the adorned constructors in generation order, Goal first.
	Adorned []string
	// Decls are the generated declarations, each adorned constructor followed
	// by its magic constructor.
	Decls []*ast.ConstructorDecl
}

// Restrict adorns the recursive constructor cons for a goal binding the
// result attributes marked 'b' in ad. Bindings pass sideways, left to right
// over each body branch: the bound head attributes (through the guard), then
// every binding's attributes once it is bound, closed under the branch's
// top-level equality conjuncts. A binding over Rel{d}, d a recursive
// constructor applied to the branch's own base, is a call: it is adorned by
// the attributes bound where it occurs, and left as it is when none is. Every
// other range and conjunct is kept verbatim — it reads a fixed relation, or
// computes a constructor in full — so the rewrite is exact for any positive
// constructor.
func Restrict(sigs map[string]*typecheck.ConstructorSig, recursive map[string]bool, cons, ad string) (*Restriction, error) {
	sig, ok := sigs[cons]
	switch {
	case !ok || !recursive[cons]:
		return nil, fmt.Errorf("%s is not a recursive constructor", cons)
	case len(sig.Params) > 0:
		return nil, fmt.Errorf("constructor %s takes arguments", cons)
	case len(ad) != sig.Result.Element.Arity() || !strings.Contains(ad, "b"):
		return nil, fmt.Errorf("adornment %q does not bind an attribute of %s", ad, cons)
	}
	r := &restrictor{sigs: sigs, recursive: recursive, magic: make(map[job]*ast.ConstructorDecl), out: &Restriction{}}
	var seed []ast.Term
	for i, c := range ad {
		if c == 'b' {
			p := ast.Param{Name: fmt.Sprintf("B%d", len(r.params)+1)}
			r.params = append(r.params, ast.FormalParam{Name: p.Name, Type: scalarTypeExpr(sig.Result.Element.Attrs[i].Type)})
			r.args = append(r.args, ast.Arg{Scalar: p})
			seed = append(seed, p)
		}
	}
	goal := r.want(cons, ad)
	goal.Body.Branches = append(goal.Body.Branches, ast.Branch{Literal: seed})
	for i := 0; i < len(r.jobs); i++ {
		if err := r.adorn(r.jobs[i]); err != nil {
			return nil, err
		}
	}
	r.out.Goal = r.out.Adorned[0]
	return r.out, nil
}

// job is one adornment of one constructor.
type job struct{ cons, ad string }

func (j job) adorned() string { return j.cons + "__" + j.ad }

type restrictor struct {
	sigs      map[string]*typecheck.ConstructorSig
	recursive map[string]bool
	// params and args are the goal's bound values B1..Bk, as formals and as
	// the arguments every generated application passes on.
	params []ast.FormalParam
	args   []ast.Arg
	jobs   []job
	magic  map[job]*ast.ConstructorDecl
	out    *Restriction
}

// want returns the magic constructor of d adorned ad, scheduling the
// adornment when it is new.
func (r *restrictor) want(d, ad string) *ast.ConstructorDecl {
	j := job{d, ad}
	if m, ok := r.magic[j]; ok {
		return m
	}
	sig := r.sigs[d]
	var fields []ast.FieldGroup
	for i, c := range ad {
		if c == 'b' {
			a := sig.Result.Element.Attrs[i]
			fields = append(fields, ast.FieldGroup{Names: []string{a.Name}, Type: scalarTypeExpr(a.Type)})
		}
	}
	m := &ast.ConstructorDecl{Name: "m__" + j.adorned(), ForVar: sig.Decl.ForVar, ForType: sig.Decl.ForType,
		Params: r.params, Result: ast.RelationTypeExpr{Elem: ast.RecordTypeExpr{Fields: fields}}, Body: &ast.SetExpr{}}
	r.magic[j] = m
	r.jobs = append(r.jobs, j)
	return m
}

// adorn generates the adorned constructor of j; magic rules for the calls it
// makes land in their magic constructors.
func (r *restrictor) adorn(j job) error {
	decl := r.sigs[j.cons].Decl
	out := &ast.ConstructorDecl{Name: j.adorned(), ForVar: decl.ForVar, ForType: decl.ForType,
		Params: r.params, Result: decl.Result, Pos: decl.Pos, Body: &ast.SetExpr{}}
	for _, br := range decl.Body.Branches {
		nb := ast.CopyBranch(br)
		if nb.Literal == nil {
			if err := r.adornBranch(&nb, j, decl.ForVar); err != nil {
				return fmt.Errorf("constructor %s: %w", j.cons, err)
			}
		}
		out.Body.Branches = append(out.Body.Branches, nb)
	}
	r.out.Adorned = append(r.out.Adorned, out.Name)
	r.out.Decls = append(r.out.Decls, out, r.magic[j])
	return nil
}

// adornBranch rewrites br, a branch of j's constructor over the base formal
// forVar, in place: it joins the guard m__j on the bound head attributes and
// adorns the recursive calls. Each adorned call adds a magic rule to its
// callee's magic constructor, collecting the call's bindings from the guard
// and the bindings before it, under the conjuncts those decide. The rule
// reads the caller's base formal by name inside the callee's magic
// constructor, so mutually recursive constructors that name or type their
// base formals differently yield declarations the checker refuses, and the
// query runs unrestricted.
func (r *restrictor) adornBranch(br *ast.Branch, j job, forVar string) error {
	head := br.Target
	if head == nil {
		elem := br.Binds[0].Range.Elem
		if elem == nil {
			return fmt.Errorf("branch %s was not type-checked", br)
		}
		for _, a := range elem.Attrs {
			head = append(head, ast.Field{Var: br.Binds[0].Var, Attr: a.Name})
		}
	}
	guard := "m"
	for slices.ContainsFunc(br.Binds, func(b ast.Binding) bool { return b.Var == guard }) {
		guard += "_"
	}
	guardBind := ast.Binding{Var: guard, Range: &ast.Range{Var: forVar,
		Suffixes: []ast.Suffix{{Kind: ast.SuffixConstructor, Name: "m__" + j.adorned(), Args: r.args}}}}
	var conj []ast.Pred
	if br.Where != nil {
		conj = ast.Conjuncts(br.Where)
	}
	var gfields []ast.Term
	for i, c := range j.ad {
		if c == 'b' {
			f := ast.Field{Var: guard, Attr: r.sigs[j.cons].Result.Element.Attrs[i].Name}
			gfields = append(gfields, f)
			conj = append(conj, ast.Cmp{Op: ast.OpEq, L: f, R: head[i]})
		}
	}
	conj = slices.DeleteFunc(conj, isTrue)
	eqs := equalities(conj)
	avail := map[string]bool{guard: true}
	for i := range br.Binds {
		bd := &br.Binds[i]
		if d, ok := r.call(bd.Range, forVar); ok {
			var ad strings.Builder
			var target []ast.Term
			for _, a := range r.sigs[d].Result.Element.Attrs {
				if t, ok := known(ast.Field{Var: bd.Var, Attr: a.Name}, eqs, avail); ok {
					ad.WriteByte('b')
					target = append(target, t)
				} else {
					ad.WriteByte('f')
				}
			}
			if target == nil {
				avail[bd.Var] = true
				continue
			}
			callee := job{d, ad.String()}
			m := r.want(callee.cons, callee.ad)
			// A call passing the guard's own bindings on unchanged adds nothing.
			if !(i == 0 && callee == j && slices.Equal(target, gfields)) {
				rule := ast.Branch{Target: target}
				for _, b := range append(br.Binds[:i:i], guardBind) {
					rule.Binds = append(rule.Binds, ast.Binding{Var: b.Var, Range: ast.CopyRange(b.Range)})
				}
				var where []ast.Pred
				for _, c := range conj {
					decided := true
					for v := range eval.FreeVarsOfPred(c) {
						decided = decided && avail[v]
					}
					if decided {
						where = append(where, ast.CopyPred(c))
					}
				}
				rule.Where = conjoin(where)
				m.Body.Branches = append(m.Body.Branches, rule)
			}
			bd.Range.Suffixes[0] = ast.Suffix{Kind: ast.SuffixConstructor, Name: callee.adorned(), Args: r.args, Pos: bd.Range.Suffixes[0].Pos}
		}
		avail[bd.Var] = true
	}
	br.Binds = append(br.Binds, guardBind)
	br.Where = conjoin(conj)
	return nil
}

// call reports whether rng is a call Rel{d} of a recursive constructor d on
// the branch's own base.
func (r *restrictor) call(rng *ast.Range, forVar string) (string, bool) {
	if rng.Sub != nil || rng.Var != forVar || len(rng.Suffixes) != 1 {
		return "", false
	}
	s := rng.Suffixes[0]
	return s.Name, s.Kind == ast.SuffixConstructor && len(s.Args) == 0 && r.recursive[s.Name]
}

// equalities collects the conjuncts that equate fields and constants, fields
// stripped of their positions so that equal fields compare equal.
func equalities(conj []ast.Pred) [][2]ast.Term {
	var out [][2]ast.Term
	for _, c := range conj {
		cmp, ok := c.(ast.Cmp)
		var pair [2]ast.Term
		for i, t := range []ast.Term{cmp.L, cmp.R} {
			switch u := t.(type) {
			case ast.Field:
				pair[i] = ast.Field{Var: u.Var, Attr: u.Attr}
			case ast.Const:
				pair[i] = u
			}
		}
		if ok && cmp.Op == ast.OpEq && pair[0] != nil && pair[1] != nil {
			out = append(out, pair)
		}
	}
	return out
}

// known returns a term the equalities make equal to t that needs no tuple
// variable outside avail — a constant or a field of one of them — if any.
func known(t ast.Term, eqs [][2]ast.Term, avail map[string]bool) (ast.Term, bool) {
	seen := map[ast.Term]bool{t: true}
	for queue := []ast.Term{t}; len(queue) > 0; queue = queue[1:] {
		switch u := queue[0].(type) {
		case ast.Const:
			return u, true
		case ast.Field:
			if avail[u.Var] {
				return u, true
			}
		}
		for _, e := range eqs {
			for i := range e {
				if e[i] == queue[0] && !seen[e[1-i]] {
					seen[e[1-i]] = true
					queue = append(queue, e[1-i])
				}
			}
		}
	}
	return nil, false
}

// scalarTypeExpr writes a scalar type as a type expression the checker
// resolves back to it: its name, or its subrange.
func scalarTypeExpr(t schema.ScalarType) ast.TypeExpr {
	if t.HasRange && t.Name != "CARDINAL" {
		return ast.RangeTypeExpr{Lo: t.Lo, Hi: t.Hi}
	}
	return ast.NamedType{Name: t.Name}
}
