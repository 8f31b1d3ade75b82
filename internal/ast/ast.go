// Package ast defines the abstract syntax of the DBPL subset implemented by
// this reproduction: tuple relational calculus expressions with range-nested
// set expressions (section 2.3 and [JaKo 83]), selector and constructor
// declarations (sections 2.3 and 3), and the small statement language used by
// the examples (assignment to plain, selected, and constructed relation
// variables).
//
// The grammar mirrors the paper's concrete syntax:
//
//	{ EACH r IN Rel: TRUE,
//	  <f.front, b.back> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head }
//
// A set expression is a union of branches; each branch binds tuple variables
// to ranges, filters with a first-order predicate, and projects through an
// optional target list.
package ast

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// Pos is a source position (1-based); the zero Pos means "unknown".
type Pos struct {
	Line, Col int
}

// String renders the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// ---------------------------------------------------------------------------
// Scalar terms and predicates
// ---------------------------------------------------------------------------

// Term is a scalar-valued expression.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Const is a literal scalar value.
type Const struct {
	Val value.Value
}

func (Const) isTerm()          {}
func (c Const) String() string { return c.Val.String() }

// Field is an attribute access v.attr on a bound tuple variable.
type Field struct {
	Var  string
	Attr string
	Pos  Pos
}

func (Field) isTerm()          {}
func (f Field) String() string { return f.Var + "." + f.Attr }

// Param is a reference to a scalar formal parameter of a selector or
// constructor (e.g. Obj in hidden_by(Obj: parttype)).
type Param struct {
	Name string
	Pos  Pos
}

func (Param) isTerm()          {}
func (p Param) String() string { return p.Name }

// ArithOp is an arithmetic operator on integer terms.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "DIV"
	default:
		return "MOD"
	}
}

// Arith is a binary arithmetic term (the paper uses s.number+1 and p MOD n).
type Arith struct {
	Op   ArithOp
	L, R Term
}

func (Arith) isTerm() {}
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op.String(), a.R.String())
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators; OpNe renders as the paper's '#'.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "#"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Pred is a boolean-valued formula.
type Pred interface {
	fmt.Stringer
	isPred()
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Val bool
}

func (BoolLit) isPred() {}
func (b BoolLit) String() string {
	if b.Val {
		return "TRUE"
	}
	return "FALSE"
}

// Cmp compares two scalar terms.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

func (Cmp) isPred()          {}
func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is conjunction.
type And struct {
	L, R Pred
}

func (And) isPred()          {}
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is disjunction.
type Or struct {
	L, R Pred
}

func (Or) isPred()          {}
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is negation.
type Not struct {
	P Pred
}

func (Not) isPred()          {}
func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.P) }

// Quant is a range-coupled quantifier: SOME/ALL v IN range (pred). The paper
// reduces these to one-sorted form in the positivity lemma of section 3.3.
type Quant struct {
	All   bool // true = ALL, false = SOME
	Var   string
	Range *Range
	Body  Pred
	Pos   Pos
}

func (Quant) isPred() {}
func (q Quant) String() string {
	kw := "SOME"
	if q.All {
		kw = "ALL"
	}
	return fmt.Sprintf("%s %s IN %s (%s)", kw, q.Var, q.Range, q.Body)
}

// Member is tuple membership, r IN Rel{c} — used by the nonsense and strange
// constructors of section 3.3. Terms give the member tuple: either the full
// tuple of a bound variable (VarTuple) or an explicit <t1,...,tn> list.
type Member struct {
	VarTuple string // if non-empty, the whole tuple of this variable
	Terms    []Term // otherwise, an explicit tuple of terms
	Range    *Range
	Pos      Pos
}

func (Member) isPred() {}
func (m Member) String() string {
	if m.VarTuple != "" {
		return fmt.Sprintf("%s IN %s", m.VarTuple, m.Range)
	}
	parts := make([]string, len(m.Terms))
	for i, t := range m.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("<%s> IN %s", strings.Join(parts, ", "), m.Range)
}

// ---------------------------------------------------------------------------
// Ranges and set expressions
// ---------------------------------------------------------------------------

// Arg is an actual argument to a selector or constructor application: either
// a relation-valued range or a scalar term.
type Arg struct {
	Rel    *Range // non-nil for relation arguments
	Scalar Term   // non-nil for scalar arguments
}

func (a Arg) String() string {
	if a.Rel != nil {
		return a.Rel.String()
	}
	return a.Scalar.String()
}

// SuffixKind distinguishes selector from constructor application.
type SuffixKind uint8

// Suffix kinds.
const (
	SuffixSelector    SuffixKind = iota // Rel[sel(args)]
	SuffixConstructor                   // Rel{constr(args)}
)

// Suffix is one application in a chain such as
// Infront[hidden_by("table")]{ahead}.
type Suffix struct {
	Kind SuffixKind
	Name string
	Args []Arg
	Pos  Pos
}

func (s Suffix) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	inner := s.Name
	if len(parts) > 0 {
		inner += "(" + strings.Join(parts, ", ") + ")"
	}
	if s.Kind == SuffixSelector {
		return "[" + inner + "]"
	}
	return "{" + inner + "}"
}

// Range is a range expression: a base relation designator with a chain of
// selector/constructor suffixes. Exactly one of Var, Sub is set.
type Range struct {
	Var      string   // named relation variable or formal relation parameter
	Sub      *SetExpr // nested set expression used as a range ([JaKo 83])
	Suffixes []Suffix
	// Elem is the element type the type checker gave the whole range, suffixes
	// included; nil on a range it has not seen. A tuple variable bound to the
	// range reads its attributes through Elem, so a formal relation bound to a
	// positionally compatible actual is read under the formal's attribute
	// names, the ones the body was checked against.
	Elem *schema.RecordType
	Pos  Pos
}

// RangeVar returns a suffix-free range over a named relation.
func RangeVar(name string) *Range { return &Range{Var: name} }

func (r *Range) String() string {
	var b strings.Builder
	if r.Sub != nil {
		b.WriteString(r.Sub.String())
	} else {
		b.WriteString(r.Var)
	}
	for _, s := range r.Suffixes {
		b.WriteString(s.String())
	}
	return b.String()
}

// Binding binds one tuple variable to a range: EACH v IN range.
type Binding struct {
	Var   string
	Range *Range
	Pos   Pos
}

func (b Binding) String() string { return fmt.Sprintf("EACH %s IN %s", b.Var, b.Range) }

// Branch is one alternative of a set expression. Either a literal tuple
// (Literal non-nil) or a query branch: bindings, predicate, and an optional
// target list. A nil Target projects the full tuple of the first binding.
type Branch struct {
	Literal []Term // literal tuple branch: <"a","b">
	Target  []Term // target list of <... OF EACH ...>; nil = whole first var
	Binds   []Binding
	Where   Pred
	Pos     Pos
}

func (br Branch) String() string {
	if br.Literal != nil {
		parts := make([]string, len(br.Literal))
		for i, t := range br.Literal {
			parts[i] = t.String()
		}
		return "<" + strings.Join(parts, ", ") + ">"
	}
	var b strings.Builder
	if br.Target != nil {
		parts := make([]string, len(br.Target))
		for i, t := range br.Target {
			parts[i] = t.String()
		}
		b.WriteString("<" + strings.Join(parts, ", ") + "> OF ")
	}
	for i, bd := range br.Binds {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(bd.String())
	}
	b.WriteString(": ")
	b.WriteString(br.Where.String())
	return b.String()
}

// SetExpr is a union of branches in braces — the paper's relation-valued
// expression form.
type SetExpr struct {
	Branches []Branch
	// Elem is the element type the type checker gave the expression (its
	// first branch's, section 3.1's positional typing); the evaluator builds
	// the result under it. nil on an expression the checker has not seen.
	Elem *schema.RecordType
	Pos  Pos
}

func (s *SetExpr) String() string {
	return "{" + s.BranchesString() + "}"
}

// BranchesString renders the branches without the surrounding braces — the
// form constructor bodies take between BEGIN and END.
func (s *SetExpr) BranchesString() string {
	parts := make([]string, len(s.Branches))
	for i, br := range s.Branches {
		parts[i] = br.String()
	}
	return strings.Join(parts, ",\n ")
}

// ---------------------------------------------------------------------------
// Type expressions and declarations
// ---------------------------------------------------------------------------

// TypeExpr is a syntactic type.
type TypeExpr interface {
	fmt.Stringer
	isType()
}

// NamedType refers to a declared or built-in type by name.
type NamedType struct {
	Name string
	Pos  Pos
}

func (NamedType) isType()          {}
func (n NamedType) String() string { return n.Name }

// RangeTypeExpr is RANGE lo..hi.
type RangeTypeExpr struct {
	Lo, Hi int64
	Pos    Pos
}

func (RangeTypeExpr) isType()          {}
func (r RangeTypeExpr) String() string { return fmt.Sprintf("RANGE %d..%d", r.Lo, r.Hi) }

// FieldGroup declares one or more record fields of a shared type:
// front, back: parttype.
type FieldGroup struct {
	Names []string
	Type  TypeExpr
}

// RecordTypeExpr is RECORD ... END.
type RecordTypeExpr struct {
	Fields []FieldGroup
	Pos    Pos
}

func (RecordTypeExpr) isType() {}
func (r RecordTypeExpr) String() string {
	parts := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		parts[i] = strings.Join(f.Names, ", ") + ": " + f.Type.String()
	}
	return "RECORD " + strings.Join(parts, "; ") + " END"
}

// RelationTypeExpr is RELATION [keyattrs] OF elementtype.
type RelationTypeExpr struct {
	Key  []string
	Elem TypeExpr
	Pos  Pos
}

func (RelationTypeExpr) isType() {}
func (r RelationTypeExpr) String() string {
	if len(r.Key) == 0 {
		return "RELATION OF " + r.Elem.String()
	}
	return "RELATION " + strings.Join(r.Key, ", ") + " OF " + r.Elem.String()
}

// FormalParam is a formal parameter of a selector or constructor. Relation-
// typed parameters enable the mutual-recursion pattern of section 3.1
// (CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel).
type FormalParam struct {
	Name string
	Type TypeExpr
	Pos  Pos
}

func (p FormalParam) String() string { return p.Name + ": " + p.Type.String() }

// Decl is a top-level declaration.
type Decl interface {
	fmt.Stringer
	declPos() Pos
}

// TypeDecl is TYPE name = typeexpr.
type TypeDecl struct {
	Name string
	Type TypeExpr
	Pos  Pos
}

func (d *TypeDecl) declPos() Pos   { return d.Pos }
func (d *TypeDecl) String() string { return "TYPE " + d.Name + " = " + d.Type.String() }

// VarDecl is VAR name, ... : typename.
type VarDecl struct {
	Names []string
	Type  TypeExpr
	Pos   Pos
}

func (d *VarDecl) declPos() Pos { return d.Pos }
func (d *VarDecl) String() string {
	return "VAR " + strings.Join(d.Names, ", ") + ": " + d.Type.String()
}

// SelectorDecl is the paper's SELECTOR declaration (section 2.3, Fig 1):
//
//	SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel (): infrontrel;
//	BEGIN EACH r IN Rel: r.front = Obj END hidden_by
type SelectorDecl struct {
	Name    string
	Params  []FormalParam
	ForVar  string   // formal name of the selected relation (Rel)
	ForType TypeExpr // its declared type
	BodyVar string   // the EACH variable of the body
	Where   Pred
	// Branch is the body as the set-expression branch it abbreviates,
	// EACH BodyVar IN ForVar: Where. The evaluator plans and runs it for every
	// application; the parser builds it once per declaration, so its address
	// identifies the selector in recorded plans.
	Branch *Branch
	Pos    Pos
}

func (d *SelectorDecl) declPos() Pos { return d.Pos }
func (d *SelectorDecl) String() string {
	params := make([]string, len(d.Params))
	for i, p := range d.Params {
		params[i] = p.String()
	}
	return fmt.Sprintf("SELECTOR %s (%s) FOR %s: %s;\nBEGIN EACH %s IN %s: %s END %s",
		d.Name, strings.Join(params, "; "), d.ForVar, d.ForType,
		d.BodyVar, d.ForVar, d.Where, d.Name)
}

// ConstructorDecl is the paper's CONSTRUCTOR declaration (section 3, Fig 2):
//
//	CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
//	BEGIN <branches> END ahead
type ConstructorDecl struct {
	Name    string
	ForVar  string   // formal name of the base relation
	ForType TypeExpr // its declared type
	Params  []FormalParam
	Result  TypeExpr
	Body    *SetExpr
	Pos     Pos
}

func (d *ConstructorDecl) declPos() Pos { return d.Pos }
func (d *ConstructorDecl) String() string {
	params := make([]string, len(d.Params))
	for i, p := range d.Params {
		params[i] = p.String()
	}
	return fmt.Sprintf("CONSTRUCTOR %s FOR %s: %s (%s): %s;\nBEGIN %s END %s",
		d.Name, d.ForVar, d.ForType, strings.Join(params, "; "),
		d.Result, d.Body.BranchesString(), d.Name)
}

// ---------------------------------------------------------------------------
// Statements and modules
// ---------------------------------------------------------------------------

// Stmt is an executable statement.
type Stmt interface {
	fmt.Stringer
	stmtPos() Pos
}

// Assign assigns a set expression to a (possibly selected) relation variable:
// Infront[refint] := rex. Suffixes on the target follow the paper's guarded-
// assignment semantics: the assignment succeeds only if every tuple of the
// right-hand side satisfies the selector predicates.
type Assign struct {
	Target   string
	Suffixes []Suffix
	Expr     *Range // any range expression, including bare {…} set expressions
	Pos      Pos
}

func (s *Assign) stmtPos() Pos { return s.Pos }
func (s *Assign) String() string {
	var b strings.Builder
	b.WriteString(s.Target)
	for _, suf := range s.Suffixes {
		b.WriteString(suf.String())
	}
	b.WriteString(" := ")
	b.WriteString(s.Expr.String())
	return b.String()
}

// Show evaluates a range expression and prints it — the module-level query
// statement of the examples.
type Show struct {
	Expr *Range
	Pos  Pos
}

func (s *Show) stmtPos() Pos   { return s.Pos }
func (s *Show) String() string { return "SHOW " + s.Expr.String() }

// Module is a parsed DBPL compilation unit.
type Module struct {
	Name  string
	Decls []Decl
	Stmts []Stmt
}

func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MODULE %s;\n", m.Name)
	for _, d := range m.Decls {
		b.WriteString(d.String())
		b.WriteString(";\n")
	}
	for _, s := range m.Stmts {
		b.WriteString(s.String())
		b.WriteString(";\n")
	}
	fmt.Fprintf(&b, "END %s.", m.Name)
	return b.String()
}
