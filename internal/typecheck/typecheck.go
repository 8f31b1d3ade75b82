// Package typecheck implements the static semantics of the DBPL subset: the
// type calculus of section 2 (named scalar, record, and relation types with
// key constraints) and the compile-time checking of selector and constructor
// declarations and statements. Together with the positivity analysis it forms
// the "type-checking level" of the paper's three-level compilation framework
// (section 4).
//
// There is one type judgement. Every expression entry point of the session —
// a module's statements (CheckModule), a transaction's (CheckStmt) and a
// prepared query (CheckQuery) — is typed by typeOfRange before it runs, and
// the checker leaves its verdict on the tree: each set expression and each
// range carries the element type it was given (ast.SetExpr.Elem,
// ast.Range.Elem), which is what the evaluator builds results under and reads
// tuple variables through. Relation variables are not part of the accumulated
// declarations: the checker asks the store the statement runs against
// (VarType), and holds only the VARs of the module being compiled (Vars).
package typecheck

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/ast"
	"repro/internal/positivity"
	"repro/internal/schema"
	"repro/internal/value"
)

// Error is a type error with position.
type Error struct {
	Pos ast.Pos
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Pos == (ast.Pos{}) {
		return e.Msg
	}
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

func errf(pos ast.Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ConstructorSig is the resolved signature of a constructor.
type ConstructorSig struct {
	Decl    *ast.ConstructorDecl
	ForType schema.RelationType
	Params  []ResolvedParam
	Result  schema.RelationType
	// Positivity is the section 3.3 analysis of the checked body: the one
	// polarity judgement the engine reads to choose its fixpoint strategy.
	Positivity positivity.Report
}

// SelectorSig is the resolved signature of a selector.
type SelectorSig struct {
	Decl    *ast.SelectorDecl
	ForType schema.RelationType
	Params  []ResolvedParam
}

// ResolvedParam is a formal parameter with its resolved type; exactly one of
// Scalar/Rel applies.
type ResolvedParam struct {
	Name     string
	IsScalar bool
	Scalar   schema.ScalarType
	Rel      schema.RelationType
}

// Checker accumulates the static environment of a module.
type Checker struct {
	Scalars      map[string]schema.ScalarType
	Records      map[string]schema.RecordType
	RelTypes     map[string]schema.RelationType
	Selectors    map[string]*SelectorSig
	Constructors map[string]*ConstructorSig
	// Vars holds the relation variables the module being checked declares;
	// compile.DeclareVars creates them in the store. Clone and Over start it
	// empty: variables are never accumulated here.
	Vars map[string]schema.RelationType
	// VarType resolves every other relation variable: the session binds it to
	// the Type method of the store the checked statement will run against.
	// nil (a stand-alone compilation) resolves none.
	VarType func(name string) (schema.RelationType, bool)
	// Strict rejects constructor declarations that violate the paper's
	// positivity requirement. The analysis runs either way and is kept on the
	// signature; the engine solves a non-positive constructor naively.
	Strict bool
}

// New returns a checker pre-populated with the built-in scalar types.
func New() *Checker {
	return &Checker{
		Scalars: map[string]schema.ScalarType{
			"INTEGER":  schema.IntType(),
			"CARDINAL": schema.CardinalType(),
			"STRING":   schema.StringType(),
			"BOOLEAN":  schema.BoolType(),
		},
		Records:      make(map[string]schema.RecordType),
		RelTypes:     make(map[string]schema.RelationType),
		Vars:         make(map[string]schema.RelationType),
		Selectors:    make(map[string]*SelectorSig),
		Constructors: make(map[string]*ConstructorSig),
		Strict:       true,
	}
}

// Clone returns an independent copy of the accumulated declarations over the
// relation variables varType resolves: a module can be checked into the copy
// and the copy discarded on error, leaving c untouched. The resolved types
// and signatures themselves are immutable and shared.
func (c *Checker) Clone(varType func(string) (schema.RelationType, bool)) *Checker {
	return &Checker{
		Scalars:      maps.Clone(c.Scalars),
		Records:      maps.Clone(c.Records),
		RelTypes:     maps.Clone(c.RelTypes),
		Vars:         make(map[string]schema.RelationType),
		Selectors:    maps.Clone(c.Selectors),
		Constructors: maps.Clone(c.Constructors),
		VarType:      varType,
		Strict:       c.Strict,
	}
}

// Over returns c's declarations, shared, over the relation variables varType
// resolves: the checker for statements and queries, which declare nothing.
func (c *Checker) Over(varType func(string) (schema.RelationType, bool)) *Checker {
	o := *c
	o.Vars, o.VarType = nil, varType
	return &o
}

// varType resolves a relation variable: one the module being checked
// declares, or one of the store's.
func (c *Checker) varType(name string) (schema.RelationType, bool) {
	if rt, ok := c.Vars[name]; ok {
		return rt, true
	}
	if c.VarType == nil {
		return schema.RelationType{}, false
	}
	return c.VarType(name)
}

// scope is the local static environment inside declarations and branches.
type scope struct {
	tupleVars map[string]schema.RecordType
	scalars   map[string]schema.ScalarType
	rels      map[string]schema.RelationType
	// params collects the scalar parameters of a query (CheckQuery); nil
	// everywhere else, where an undeclared scalar name is an error.
	params *paramSet
}

func (c *Checker) newScope() *scope {
	return &scope{
		tupleVars: make(map[string]schema.RecordType),
		scalars:   make(map[string]schema.ScalarType),
		rels:      make(map[string]schema.RelationType),
	}
}

// closed is s without its tuple variables. A range is materialized once per
// evaluation, before any tuple variable is bound, so it can read none of them.
func (s *scope) closed() *scope {
	return &scope{scalars: s.scalars, rels: s.rels, params: s.params}
}

func (s *scope) clone() *scope {
	c := &scope{
		tupleVars: make(map[string]schema.RecordType, len(s.tupleVars)),
		scalars:   make(map[string]schema.ScalarType, len(s.scalars)),
		rels:      make(map[string]schema.RelationType, len(s.rels)),
		params:    s.params,
	}
	for k, v := range s.tupleVars {
		c.tupleVars[k] = v
	}
	for k, v := range s.scalars {
		c.scalars[k] = v
	}
	for k, v := range s.rels {
		c.rels[k] = v
	}
	return c
}

// ---------------------------------------------------------------------------
// Type expression resolution
// ---------------------------------------------------------------------------

// ResolveScalar resolves a type expression to a scalar type.
func (c *Checker) ResolveScalar(te ast.TypeExpr) (schema.ScalarType, error) {
	switch t := te.(type) {
	case ast.NamedType:
		if st, ok := c.Scalars[t.Name]; ok {
			return st, nil
		}
		return schema.ScalarType{}, errf(t.Pos, "unknown scalar type %q", t.Name)
	case ast.RangeTypeExpr:
		if t.Lo > t.Hi {
			return schema.ScalarType{}, errf(t.Pos, "empty subrange %d..%d", t.Lo, t.Hi)
		}
		return schema.RangeType("", t.Lo, t.Hi), nil
	default:
		return schema.ScalarType{}, errf(ast.Pos{}, "%s is not a scalar type", te)
	}
}

// ResolveRecord resolves a type expression to a record type.
func (c *Checker) ResolveRecord(te ast.TypeExpr) (schema.RecordType, error) {
	switch t := te.(type) {
	case ast.NamedType:
		if rt, ok := c.Records[t.Name]; ok {
			return rt, nil
		}
		return schema.RecordType{}, errf(t.Pos, "unknown record type %q", t.Name)
	case ast.RecordTypeExpr:
		var attrs []schema.Attribute
		for _, fg := range t.Fields {
			st, err := c.ResolveScalar(fg.Type)
			if err != nil {
				return schema.RecordType{}, err
			}
			for _, n := range fg.Names {
				attrs = append(attrs, schema.Attribute{Name: n, Type: st})
			}
		}
		return schema.RecordType{Attrs: attrs}, nil
	default:
		return schema.RecordType{}, errf(ast.Pos{}, "%s is not a record type", te)
	}
}

// ResolveRelation resolves a type expression to a relation type.
func (c *Checker) ResolveRelation(te ast.TypeExpr) (schema.RelationType, error) {
	switch t := te.(type) {
	case ast.NamedType:
		if rt, ok := c.RelTypes[t.Name]; ok {
			return rt, nil
		}
		return schema.RelationType{}, errf(t.Pos, "unknown relation type %q", t.Name)
	case ast.RelationTypeExpr:
		elem, err := c.ResolveRecord(t.Elem)
		if err != nil {
			return schema.RelationType{}, err
		}
		rt := schema.RelationType{Element: elem, Key: t.Key}
		if err := rt.Validate(); err != nil {
			return schema.RelationType{}, errf(t.Pos, "%v", err)
		}
		return rt, nil
	default:
		return schema.RelationType{}, errf(ast.Pos{}, "%s is not a relation type", te)
	}
}

func (c *Checker) resolveParams(params []ast.FormalParam) ([]ResolvedParam, error) {
	out := make([]ResolvedParam, len(params))
	for i, p := range params {
		if rt, err := c.ResolveRelation(p.Type); err == nil {
			out[i] = ResolvedParam{Name: p.Name, Rel: rt}
			continue
		}
		st, err := c.ResolveScalar(p.Type)
		if err != nil {
			return nil, errf(p.Pos, "parameter %q: %s is neither a relation nor a scalar type", p.Name, p.Type)
		}
		out[i] = ResolvedParam{Name: p.Name, IsScalar: true, Scalar: st}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Module checking
// ---------------------------------------------------------------------------

// CheckModule checks all declarations and statements of a module, populating
// the checker's environment. Checking proceeds in phases so that mutually
// recursive constructors (the paper's ahead/above pair) type-check regardless
// of declaration order: types and variables first, then all constructor
// signatures, then selector declarations, then constructor bodies, then
// statements. It returns the first error found.
func (c *Checker) CheckModule(m *ast.Module) error {
	for _, d := range m.Decls {
		switch t := d.(type) {
		case *ast.TypeDecl:
			if err := c.checkTypeDecl(t); err != nil {
				return err
			}
		case *ast.VarDecl:
			if err := c.checkVarDecl(t); err != nil {
				return err
			}
		}
	}
	if err := c.PreRegisterConstructors(m); err != nil {
		return err
	}
	for _, d := range m.Decls {
		if t, ok := d.(*ast.SelectorDecl); ok {
			if err := c.checkSelectorDecl(t); err != nil {
				return err
			}
		}
	}
	for _, d := range m.Decls {
		if t, ok := d.(*ast.ConstructorDecl); ok {
			if _, err := c.CheckConstructorDecl(t); err != nil {
				return err
			}
		}
	}
	for _, s := range m.Stmts {
		if err := c.CheckStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checker) defined(name string) bool {
	if _, ok := c.Scalars[name]; ok {
		return true
	}
	if _, ok := c.Records[name]; ok {
		return true
	}
	_, ok := c.RelTypes[name]
	return ok
}

func (c *Checker) checkTypeDecl(d *ast.TypeDecl) error {
	if c.defined(d.Name) {
		return errf(d.Pos, "type %q already defined", d.Name)
	}
	switch te := d.Type.(type) {
	case ast.RelationTypeExpr:
		rt, err := c.ResolveRelation(te)
		if err != nil {
			return err
		}
		rt.Name = d.Name
		c.RelTypes[d.Name] = rt
	case ast.RecordTypeExpr:
		rec, err := c.ResolveRecord(te)
		if err != nil {
			return err
		}
		rec.Name = d.Name
		c.Records[d.Name] = rec
	default:
		st, err := c.ResolveScalar(d.Type)
		if err != nil {
			return err
		}
		st.Name = d.Name
		c.Scalars[d.Name] = st
	}
	return nil
}

func (c *Checker) checkVarDecl(d *ast.VarDecl) error {
	rt, err := c.ResolveRelation(d.Type)
	if err != nil {
		return errf(d.Pos, "variable declaration: %v", err)
	}
	for _, n := range d.Names {
		if prev, dup := c.varType(n); dup {
			// Re-declaring at the same type is a no-op, so schema modules can
			// be re-executed over a recovered, loaded or replicated store. A
			// conflicting type stays an error.
			if sameRelationType(prev, rt) {
				continue
			}
			return errf(d.Pos, "variable %q already declared with type %s", n, prev)
		}
		c.Vars[n] = rt
	}
	return nil
}

// sameRelationType reports structural equality: same attribute names and
// domains positionally, and the same key. Attribute names matter here —
// CompatibleWith alone is positional, and a re-declaration that renames
// attributes must conflict, not silently keep the old names.
func sameRelationType(a, b schema.RelationType) bool {
	if !a.CompatibleWith(b) || len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Element.Attrs {
		if a.Element.Attrs[i].Name != b.Element.Attrs[i].Name {
			return false
		}
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return false
		}
	}
	return true
}

func (c *Checker) checkSelectorDecl(d *ast.SelectorDecl) error {
	if _, dup := c.Selectors[d.Name]; dup {
		return errf(d.Pos, "selector %q already defined", d.Name)
	}
	forType, err := c.ResolveRelation(d.ForType)
	if err != nil {
		return errf(d.Pos, "selector %q: %v", d.Name, err)
	}
	params, err := c.resolveParams(d.Params)
	if err != nil {
		return err
	}
	sc := c.newScope()
	for _, p := range params {
		if p.IsScalar {
			sc.scalars[p.Name] = p.Scalar
		} else {
			sc.rels[p.Name] = p.Rel
		}
	}
	sc.rels[d.ForVar] = forType
	// The body is the branch EACH BodyVar IN ForVar: Where; typing it as one
	// leaves the For-type's element type on its range, which is what an
	// application reads its base through.
	if _, err := c.checkBranch(d.Branch, sc); err != nil {
		return fmt.Errorf("selector %q: %w", d.Name, err)
	}
	c.Selectors[d.Name] = &SelectorSig{Decl: d, ForType: forType, Params: params}
	return nil
}

// CheckConstructorDecl checks and records a constructor declaration,
// returning its resolved signature. Note the two-pass scheme: the signature
// is registered before the body is checked so that self- and forward-
// referencing applications type-check (mutual recursion needs the partner's
// signature; callers declaring mutually recursive constructors should use
// CheckModule, which registers signatures in declaration order — forward
// references are resolved by a pre-registration pass there).
func (c *Checker) CheckConstructorDecl(d *ast.ConstructorDecl) (*ConstructorSig, error) {
	sig, ok := c.Constructors[d.Name]
	if ok && sig.Decl != d {
		return nil, errf(d.Pos, "constructor %q already defined", d.Name)
	}
	if sig == nil {
		var err error
		sig, err = c.resolveConstructorSig(d)
		if err != nil {
			return nil, err
		}
		c.Constructors[d.Name] = sig
	}

	sc := c.newScope()
	sc.rels[d.ForVar] = sig.ForType
	for _, p := range sig.Params {
		if p.IsScalar {
			sc.scalars[p.Name] = p.Scalar
		} else {
			sc.rels[p.Name] = p.Rel
		}
	}
	if _, err := c.checkSetExpr(d.Body, sc, &sig.Result.Element); err != nil {
		delete(c.Constructors, d.Name)
		return nil, fmt.Errorf("constructor %q: %w", d.Name, err)
	}
	sig.Positivity = positivity.CheckConstructor(d, c.selectorDecl)
	if c.Strict && !sig.Positivity.Positive() {
		delete(c.Constructors, d.Name)
		return nil, fmt.Errorf("constructor %q: %w", d.Name, sig.Positivity.Err(d.Name))
	}
	return sig, nil
}

// selectorDecl resolves a declared selector for the positivity analysis.
func (c *Checker) selectorDecl(name string) *ast.SelectorDecl {
	if sig := c.Selectors[name]; sig != nil {
		return sig.Decl
	}
	return nil
}

func (c *Checker) resolveConstructorSig(d *ast.ConstructorDecl) (*ConstructorSig, error) {
	forType, err := c.ResolveRelation(d.ForType)
	if err != nil {
		return nil, errf(d.Pos, "constructor %q: %v", d.Name, err)
	}
	params, err := c.resolveParams(d.Params)
	if err != nil {
		return nil, err
	}
	result, err := c.ResolveRelation(d.Result)
	if err != nil {
		return nil, errf(d.Pos, "constructor %q result: %v", d.Name, err)
	}
	return &ConstructorSig{Decl: d, ForType: forType, Params: params, Result: result}, nil
}

// PreRegisterConstructors resolves the signatures of all constructor
// declarations in a module before their bodies are checked, enabling mutual
// recursion regardless of declaration order (the paper's ahead/above pair
// references each other).
func (c *Checker) PreRegisterConstructors(m *ast.Module) error {
	for _, d := range m.Decls {
		cd, ok := d.(*ast.ConstructorDecl)
		if !ok {
			continue
		}
		if _, dup := c.Constructors[cd.Name]; dup {
			return errf(cd.Pos, "constructor %q already defined", cd.Name)
		}
		sig, err := c.resolveConstructorSig(cd)
		if err != nil {
			return err
		}
		c.Constructors[cd.Name] = sig
	}
	return nil
}

// CheckStmt checks a statement against the accumulated environment.
func (c *Checker) CheckStmt(s ast.Stmt) error {
	switch t := s.(type) {
	case *ast.Show:
		sc := c.newScope()
		_, err := c.typeOfRange(t.Expr, sc)
		return err
	case *ast.Assign:
		varType, ok := c.varType(t.Target)
		if !ok {
			return errf(t.Pos, "assignment to undeclared variable %q", t.Target)
		}
		cur := varType
		for i := range t.Suffixes {
			nt, err := c.typeOfSuffix(cur, &t.Suffixes[i], c.newScope())
			if err != nil {
				return err
			}
			cur = nt
		}
		sc := c.newScope()
		rhs, err := c.typeOfRange(t.Expr, sc)
		if err != nil {
			return err
		}
		// Kind compatibility suffices statically; subrange domains are
		// re-checked at run time on assignment (section 2.1).
		if rhs.Element.Arity() > 0 && !rhs.Element.KindCompatibleWith(cur.Element) {
			return errf(t.Pos, "cannot assign %s to variable %q of type %s",
				rhs.Element, t.Target, cur.Element)
		}
		return nil
	default:
		return errf(ast.Pos{}, "unknown statement %T", s)
	}
}

// ---------------------------------------------------------------------------
// Queries and their parameters
// ---------------------------------------------------------------------------

// Param is a scalar parameter of a query: a name the query uses as a scalar
// that no declaration binds. Type is the type of its first typed context — the
// formal it is passed to, the other side of its comparison, INTEGER under
// arithmetic — and every later context is checked against it. A parameter no
// context types (it occurs only in target lists, or is compared only with
// other such parameters) is open, its Type the zero ScalarType: it is typed by
// the kind of the value bound to it, by checking the query again with it
// given.
type Param struct {
	Name string
	Type schema.ScalarType
	pos  ast.Pos // first occurrence in the source
}

// paramSet collects the parameters of the query being checked.
type paramSet struct{ list []*Param }

// use returns the parameter called name, adding it if the query has not used
// the name before, and notes pos as one of its occurrences.
func (ps *paramSet) use(name string, pos ast.Pos) *Param {
	for _, p := range ps.list {
		if p.Name == name {
			if before(pos, p.pos) {
				p.pos = pos
			}
			return p
		}
	}
	p := &Param{Name: name, pos: pos}
	ps.list = append(ps.list, p)
	return p
}

// before orders source positions.
func before(a, b ast.Pos) bool {
	return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
}

// known reports whether a term's type is determined; only an open parameter,
// and what is projected from one, is not.
func known(t schema.ScalarType) bool { return t.Kind != value.KindInvalid }

// fix types the open parameter t is by the type want its context requires,
// and returns t's type after that; any other term keeps the type it has.
func (sc *scope) fix(t ast.Term, have, want schema.ScalarType) schema.ScalarType {
	if p, ok := t.(ast.Param); ok && !known(have) && known(want) {
		sc.params.use(p.Name, p.Pos).Type = want
		return want
	}
	return have
}

// fits is RecordType.CompatibleWith — equal arity, pairwise the same domains
// — with an attribute projected from an open parameter fitting any domain.
func fits(a, b schema.RecordType) bool {
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		x, y := a.Attrs[i].Type, b.Attrs[i].Type
		if known(x) && known(y) && !x.SameDomain(y) {
			return false
		}
	}
	return true
}

// CheckQuery types a query — the range expression Prepare parsed, or the form
// the optimizer rewrote it into — exactly as CheckStmt types a SHOW, except
// that a scalar name nothing declares is a parameter of the query instead of
// an error. given lists parameters already typed: the query's own, when a
// rewritten form is checked or open ones have been bound. It returns the
// query's relation type and its parameters in source order.
func (c *Checker) CheckQuery(r *ast.Range, given []Param) (schema.RelationType, []Param, error) {
	sc := c.newScope()
	sc.params = &paramSet{}
	for _, p := range given {
		sc.params.list = append(sc.params.list, &p)
	}
	rt, err := c.typeOfRange(r, sc)
	if err != nil {
		return schema.RelationType{}, nil, err
	}
	ps := sc.params.list
	sort.SliceStable(ps, func(i, j int) bool { return before(ps[i].pos, ps[j].pos) })
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return rt, out, nil
}

// ---------------------------------------------------------------------------
// Expression typing
// ---------------------------------------------------------------------------

// typeOfRange is the one function that types a range expression. It records
// the verdict on r (and, through checkSetExpr, on every set expression in
// it) for the evaluator.
func (c *Checker) typeOfRange(r *ast.Range, sc *scope) (schema.RelationType, error) {
	sc = sc.closed()
	var cur schema.RelationType
	switch {
	case r.Sub != nil:
		rec, err := c.checkSetExpr(r.Sub, sc, nil)
		if err != nil {
			return schema.RelationType{}, err
		}
		cur = schema.RelationType{Element: rec}
	default:
		if rt, ok := sc.rels[r.Var]; ok {
			cur = rt
		} else if rt, ok := c.varType(r.Var); ok {
			cur = rt
		} else {
			return schema.RelationType{}, errf(r.Pos, "unknown relation %q", r.Var)
		}
	}
	for i := range r.Suffixes {
		nt, err := c.typeOfSuffix(cur, &r.Suffixes[i], sc)
		if err != nil {
			return schema.RelationType{}, err
		}
		cur = nt
	}
	elem := cur.Element
	r.Elem = &elem
	return cur, nil
}

func (c *Checker) typeOfSuffix(base schema.RelationType, s *ast.Suffix, sc *scope) (schema.RelationType, error) {
	switch s.Kind {
	case ast.SuffixSelector:
		sig, ok := c.Selectors[s.Name]
		if !ok {
			return schema.RelationType{}, errf(s.Pos, "unknown selector %q", s.Name)
		}
		if !fits(base.Element, sig.ForType.Element) {
			return schema.RelationType{}, errf(s.Pos,
				"selector %q expects base of type %s, got %s", s.Name, sig.ForType.Element, base.Element)
		}
		if err := c.checkArgs(s, sig.Params, sc); err != nil {
			return schema.RelationType{}, err
		}
		return base, nil // selection preserves the base type
	default:
		sig, ok := c.Constructors[s.Name]
		if !ok {
			return schema.RelationType{}, errf(s.Pos, "unknown constructor %q", s.Name)
		}
		if !fits(base.Element, sig.ForType.Element) {
			return schema.RelationType{}, errf(s.Pos,
				"constructor %q expects base of type %s, got %s", s.Name, sig.ForType.Element, base.Element)
		}
		if err := c.checkArgs(s, sig.Params, sc); err != nil {
			return schema.RelationType{}, err
		}
		return sig.Result, nil
	}
}

func (c *Checker) checkArgs(s *ast.Suffix, params []ResolvedParam, sc *scope) error {
	if len(s.Args) != len(params) {
		return errf(s.Pos, "%q expects %d argument(s), got %d", s.Name, len(params), len(s.Args))
	}
	for i, a := range s.Args {
		p := params[i]
		if p.IsScalar {
			term := a.Scalar
			switch {
			case term != nil:
			case a.Rel != nil && a.Rel.Sub == nil && len(a.Rel.Suffixes) == 0:
				// Bare identifier: the parser cannot tell a scalar name from a
				// relation's, the formal can.
				term = ast.Param{Name: a.Rel.Var, Pos: a.Rel.Pos}
			default:
				return errf(s.Pos, "argument %d of %q must be scalar", i+1, s.Name)
			}
			st, err := c.typeOfTerm(term, sc)
			if err != nil {
				return err
			}
			if st = sc.fix(term, st, p.Scalar); known(st) && st.Kind != p.Scalar.Kind {
				return errf(s.Pos, "argument %d of %q: expected %s, got %s", i+1, s.Name, p.Scalar, st)
			}
			continue
		}
		if a.Rel == nil {
			return errf(s.Pos, "argument %d of %q must be a relation", i+1, s.Name)
		}
		at, err := c.typeOfRange(a.Rel, sc)
		if err != nil {
			return err
		}
		if !fits(at.Element, p.Rel.Element) {
			return errf(s.Pos, "argument %d of %q: expected %s, got %s",
				i+1, s.Name, p.Rel.Element, at.Element)
		}
	}
	return nil
}

// checkSetExpr types a set expression — under expected when it is given (a
// constructor body under its declared result type), under its first branch's
// type otherwise, every later branch positionally compatible (section 3.1) —
// and records the type on s.
func (c *Checker) checkSetExpr(s *ast.SetExpr, sc *scope, expected *schema.RecordType) (schema.RecordType, error) {
	if len(s.Branches) == 0 && expected == nil {
		return schema.RecordType{}, errf(s.Pos, "cannot infer the type of an empty set expression")
	}
	var result schema.RecordType
	if expected != nil {
		result = *expected
	}
	for i := range s.Branches {
		bt, err := c.checkBranch(&s.Branches[i], sc)
		if err != nil {
			return schema.RecordType{}, err
		}
		if i == 0 && expected == nil {
			result = bt
			continue
		}
		if !fits(bt, result) {
			return schema.RecordType{}, errf(s.Branches[i].Pos,
				"branch %d yields %s, incompatible with %s", i+1, bt, result)
		}
	}
	s.Elem = &result
	return result, nil
}

func (c *Checker) checkBranch(br *ast.Branch, outer *scope) (schema.RecordType, error) {
	sc := outer.clone()
	if br.Literal != nil {
		return c.typeOfTerms(br.Literal, sc)
	}
	if len(br.Binds) == 0 {
		return schema.RecordType{}, errf(br.Pos, "branch has no bindings")
	}
	for _, bd := range br.Binds {
		if _, dup := sc.tupleVars[bd.Var]; dup {
			return schema.RecordType{}, errf(bd.Pos, "duplicate tuple variable %q", bd.Var)
		}
		rt, err := c.typeOfRange(bd.Range, sc)
		if err != nil {
			return schema.RecordType{}, err
		}
		sc.tupleVars[bd.Var] = rt.Element
	}
	if br.Where != nil {
		if err := c.checkPred(br.Where, sc); err != nil {
			return schema.RecordType{}, err
		}
	}
	if br.Target == nil {
		return sc.tupleVars[br.Binds[0].Var], nil
	}
	return c.typeOfTerms(br.Target, sc)
}

func (c *Checker) typeOfTerms(terms []ast.Term, sc *scope) (schema.RecordType, error) {
	attrs := make([]schema.Attribute, len(terms))
	used := make(map[string]bool)
	for i, tm := range terms {
		st, err := c.typeOfTerm(tm, sc)
		if err != nil {
			return schema.RecordType{}, err
		}
		// An attribute is named after the field or scalar it projects, a%d
		// otherwise, and suffixed with its position on a clash.
		name := fmt.Sprintf("a%d", i+1)
		switch u := tm.(type) {
		case ast.Field:
			name = u.Attr
		case ast.Param:
			name = u.Name
		}
		for used[name] {
			name = fmt.Sprintf("%s_%d", name, i+1)
		}
		used[name] = true
		attrs[i] = schema.Attribute{Name: name, Type: st}
	}
	return schema.RecordType{Attrs: attrs}, nil
}

func (c *Checker) checkPred(p ast.Pred, sc *scope) error {
	switch q := p.(type) {
	case ast.BoolLit:
		return nil
	case ast.Cmp:
		lt, err := c.typeOfTerm(q.L, sc)
		if err != nil {
			return err
		}
		rt, err := c.typeOfTerm(q.R, sc)
		if err != nil {
			return err
		}
		lt, rt = sc.fix(q.L, lt, rt), sc.fix(q.R, rt, lt)
		if known(lt) && known(rt) && lt.Kind != rt.Kind {
			return errf(ast.Pos{}, "comparison %s between %s and %s", q.Op, lt, rt)
		}
		return nil
	case ast.And:
		if err := c.checkPred(q.L, sc); err != nil {
			return err
		}
		return c.checkPred(q.R, sc)
	case ast.Or:
		if err := c.checkPred(q.L, sc); err != nil {
			return err
		}
		return c.checkPred(q.R, sc)
	case ast.Not:
		return c.checkPred(q.P, sc)
	case ast.Quant:
		rt, err := c.typeOfRange(q.Range, sc)
		if err != nil {
			return err
		}
		inner := sc.clone()
		inner.tupleVars[q.Var] = rt.Element
		return c.checkPred(q.Body, inner)
	case ast.Member:
		rt, err := c.typeOfRange(q.Range, sc)
		if err != nil {
			return err
		}
		if q.VarTuple != "" {
			vt, ok := sc.tupleVars[q.VarTuple]
			if !ok {
				return errf(q.Pos, "unbound tuple variable %q", q.VarTuple)
			}
			if !fits(vt, rt.Element) {
				return errf(q.Pos, "membership of %s tuple in %s relation", vt, rt.Element)
			}
			return nil
		}
		mt, err := c.typeOfTerms(q.Terms, sc)
		if err != nil {
			return err
		}
		if !fits(mt, rt.Element) {
			return errf(q.Pos, "membership of %s tuple in %s relation", mt, rt.Element)
		}
		return nil
	default:
		return errf(ast.Pos{}, "unknown predicate %T", p)
	}
}

// ScalarOf is the type of a scalar value: the unrestricted type of its kind.
func ScalarOf(v value.Value) schema.ScalarType {
	switch v.Kind() {
	case value.KindInt:
		return schema.IntType()
	case value.KindString:
		return schema.StringType()
	default:
		return schema.BoolType()
	}
}

func (c *Checker) typeOfTerm(t ast.Term, sc *scope) (schema.ScalarType, error) {
	switch u := t.(type) {
	case ast.Const:
		return ScalarOf(u.Val), nil
	case ast.Param:
		if st, ok := sc.scalars[u.Name]; ok {
			return st, nil
		}
		_, isRel := sc.rels[u.Name]
		if !isRel {
			_, isRel = c.varType(u.Name)
		}
		switch {
		case isRel:
			return schema.ScalarType{}, errf(u.Pos, "%q is a relation, not a scalar", u.Name)
		case sc.params == nil:
			return schema.ScalarType{}, errf(u.Pos, "unknown scalar %q", u.Name)
		}
		return sc.params.use(u.Name, u.Pos).Type, nil
	case ast.Field:
		rec, ok := sc.tupleVars[u.Var]
		if !ok {
			return schema.ScalarType{}, errf(u.Pos, "unbound tuple variable %q", u.Var)
		}
		idx := rec.IndexOf(u.Attr)
		if idx < 0 {
			return schema.ScalarType{}, errf(u.Pos, "variable %q has no attribute %q (type %s)",
				u.Var, u.Attr, rec)
		}
		return rec.Attrs[idx].Type, nil
	case ast.Arith:
		lt, err := c.typeOfTerm(u.L, sc)
		if err != nil {
			return schema.ScalarType{}, err
		}
		rt, err := c.typeOfTerm(u.R, sc)
		if err != nil {
			return schema.ScalarType{}, err
		}
		lt, rt = sc.fix(u.L, lt, schema.IntType()), sc.fix(u.R, rt, schema.IntType())
		if known(lt) && lt.Kind != value.KindInt || known(rt) && rt.Kind != value.KindInt {
			return schema.ScalarType{}, errf(ast.Pos{}, "arithmetic %s on non-integer operands", u.Op)
		}
		return schema.IntType(), nil
	default:
		return schema.ScalarType{}, errf(ast.Pos{}, "unknown term %T", t)
	}
}
