package horn

// Datalog -> constructors: the reverse direction of the section 3.4 lemma.
// Every derived (IDB) predicate p becomes a constructor c_p. Because a rule
// body generally joins several relations, the constructors follow the
// paper's advice to "start with an empty relation" as the base and take all
// base and derived extensions as parameters: EDB predicates map to relation
// parameters E_<pred>, and each IDB predicate q contributes an empty seed
// parameter S_<q> on which the recursive application S_q{c_q(...)} hangs.

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/prolog"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Bundle is the result of ToConstructors: constructor declarations plus the
// relation types and the parameter order needed to apply them.
type Bundle struct {
	// Decls maps each IDB predicate to its constructor declaration.
	Decls map[string]*ast.ConstructorDecl
	// RelTypes maps every predicate to its relation type (attrs f1..fn).
	RelTypes map[string]schema.RelationType
	// EDB and IDB list the base and derived predicates in parameter order.
	EDB []string
	IDB []string
}

// ConstructorName returns the constructor name for an IDB predicate.
func ConstructorName(pred string) string { return "c_" + pred }

// ToConstructors translates a Datalog program. Every predicate's attributes
// are typed with the given scalar type (Datalog is untyped; the tests use
// strings). Facts of EDB predicates are not part of the translation — they
// are supplied as relations when the constructors are applied.
func ToConstructors(prog *prolog.Program, scalar schema.ScalarType) (*Bundle, error) {
	b := &Bundle{
		Decls:    make(map[string]*ast.ConstructorDecl),
		RelTypes: make(map[string]schema.RelationType),
	}

	// Determine arities and split EDB/IDB.
	arity := make(map[string]int)
	note := func(a prolog.Atom) error {
		if old, ok := arity[a.Pred]; ok && old != len(a.Args) {
			return fmt.Errorf("horn: predicate %q used with arities %d and %d", a.Pred, old, len(a.Args))
		}
		arity[a.Pred] = len(a.Args)
		return nil
	}
	for _, c := range prog.Clauses() {
		if err := note(c.Head); err != nil {
			return nil, err
		}
		for _, a := range c.Body {
			if err := note(a); err != nil {
				return nil, err
			}
		}
	}
	for pred, n := range arity {
		attrs := make([]schema.Attribute, n)
		for i := range attrs {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("f%d", i+1), Type: scalar}
		}
		b.RelTypes[pred] = schema.RelationType{
			Name:    "rel_" + pred,
			Element: schema.RecordType{Attrs: attrs},
		}
		if prog.IsDerived(pred) {
			b.IDB = append(b.IDB, pred)
		} else {
			b.EDB = append(b.EDB, pred)
		}
	}
	sort.Strings(b.EDB)
	sort.Strings(b.IDB)

	params := func() []ast.FormalParam {
		var out []ast.FormalParam
		for _, e := range b.EDB {
			out = append(out, ast.FormalParam{Name: "E_" + e, Type: ast.NamedType{Name: "rel_" + e}})
		}
		for _, q := range b.IDB {
			out = append(out, ast.FormalParam{Name: "S_" + q, Type: ast.NamedType{Name: "rel_" + q}})
		}
		return out
	}

	// fullArgs is the argument list threading every parameter through to a
	// recursive application.
	fullArgs := func() []ast.Arg {
		var out []ast.Arg
		for _, e := range b.EDB {
			out = append(out, ast.Arg{Rel: ast.RangeVar("E_" + e)})
		}
		for _, q := range b.IDB {
			out = append(out, ast.Arg{Rel: ast.RangeVar("S_" + q)})
		}
		return out
	}

	for _, p := range b.IDB {
		decl := &ast.ConstructorDecl{
			Name:    ConstructorName(p),
			ForVar:  "Rel",
			ForType: ast.NamedType{Name: "rel_" + p},
			Params:  params(),
			Result:  ast.NamedType{Name: "rel_" + p},
			Body:    &ast.SetExpr{},
		}
		for _, c := range prog.Clauses() {
			if c.Head.Pred != p {
				continue
			}
			br, err := ruleToBranch(b, prog, c, fullArgs)
			if err != nil {
				return nil, fmt.Errorf("horn: rule %s: %w", c, err)
			}
			decl.Body.Branches = append(decl.Body.Branches, br)
		}
		b.Decls[p] = decl
	}
	return b, nil
}

// ruleToBranch converts one clause into a set-expression branch.
func ruleToBranch(b *Bundle, prog *prolog.Program, c prolog.Clause, fullArgs func() []ast.Arg) (ast.Branch, error) {
	if len(c.Body) == 0 {
		// Ground IDB fact -> literal tuple branch.
		lit := make([]ast.Term, len(c.Head.Args))
		for i, t := range c.Head.Args {
			if t.IsVar() {
				return ast.Branch{}, fmt.Errorf("fact with variable is not range-restricted")
			}
			lit[i] = ast.Const{Val: t.Con}
		}
		return ast.Branch{Literal: lit}, nil
	}

	br := ast.Branch{}
	// firstOcc maps a Datalog variable to its first (tuple var, attr) site.
	type site struct {
		tvar string
		attr string
	}
	firstOcc := make(map[int]site)
	var conj []ast.Pred

	for i, a := range c.Body {
		tvar := fmt.Sprintf("v%d", i+1)
		var rng *ast.Range
		if prog.IsDerived(a.Pred) {
			rng = &ast.Range{Var: "S_" + a.Pred, Suffixes: []ast.Suffix{{
				Kind: ast.SuffixConstructor,
				Name: ConstructorName(a.Pred),
				Args: fullArgs(),
			}}}
		} else {
			rng = ast.RangeVar("E_" + a.Pred)
		}
		br.Binds = append(br.Binds, ast.Binding{Var: tvar, Range: rng})
		elem := b.RelTypes[a.Pred].Element
		if len(a.Args) != elem.Arity() {
			return ast.Branch{}, fmt.Errorf("atom %s arity mismatch", a)
		}
		for j, t := range a.Args {
			attr := elem.Attrs[j].Name
			field := ast.Field{Var: tvar, Attr: attr}
			if !t.IsVar() {
				conj = append(conj, ast.Cmp{Op: ast.OpEq, L: field, R: ast.Const{Val: t.Con}})
				continue
			}
			if s, ok := firstOcc[t.Var]; ok {
				conj = append(conj, ast.Cmp{Op: ast.OpEq,
					L: field, R: ast.Field{Var: s.tvar, Attr: s.attr}})
			} else {
				firstOcc[t.Var] = site{tvar: tvar, attr: attr}
			}
		}
	}

	// Head -> target list.
	headElem := b.RelTypes[c.Head.Pred].Element
	if len(c.Head.Args) != headElem.Arity() {
		return ast.Branch{}, fmt.Errorf("head %s arity mismatch", c.Head)
	}
	br.Target = make([]ast.Term, len(c.Head.Args))
	for i, t := range c.Head.Args {
		if !t.IsVar() {
			br.Target[i] = ast.Const{Val: t.Con}
			continue
		}
		s, ok := firstOcc[t.Var]
		if !ok {
			return ast.Branch{}, fmt.Errorf("head variable _%d does not occur in the body (not range-restricted)", t.Var)
		}
		br.Target[i] = ast.Field{Var: s.tvar, Attr: s.attr}
	}

	br.Where = conjoin(conj)
	return br, nil
}

func conjoin(preds []ast.Pred) ast.Pred {
	if len(preds) == 0 {
		return ast.BoolLit{Val: true}
	}
	out := preds[0]
	for _, p := range preds[1:] {
		out = ast.And{L: out, R: p}
	}
	return out
}

// ---------------------------------------------------------------------------
// Relation <-> facts glue
// ---------------------------------------------------------------------------

// FactsFromRelation converts a relation's tuples into ground facts for pred.
func FactsFromRelation(pred string, r *relation.Relation) []prolog.Clause {
	out := make([]prolog.Clause, 0, r.Len())
	r.Each(func(t value.Tuple) bool {
		out = append(out, prolog.Fact(pred, t...))
		return true
	})
	return out
}

// RelationFromAnswers builds a relation of the given type from query answers.
func RelationFromAnswers(typ schema.RelationType, answers [][]value.Value) (*relation.Relation, error) {
	r := relation.New(typ)
	for _, row := range answers {
		if err := r.Insert(value.Tuple(row)); err != nil {
			return nil, err
		}
	}
	return r, nil
}
