// Package parser implements a recursive-descent parser for the DBPL subset:
// modules with TYPE and VAR declarations, SELECTOR and CONSTRUCTOR
// declarations (sections 2.3 and 3 of the paper), and assignment/SHOW
// statements over range expressions with selector and constructor suffixes.
//
// The concrete syntax follows the paper:
//
//	MODULE cad;
//	TYPE parttype   = STRING;
//	TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
//	TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
//	VAR Infront: infrontrel;
//
//	CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
//	BEGIN
//	  EACH r IN Rel: TRUE,
//	  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
//	END ahead;
//
//	Infront := {<"vase","table">, <"table","chair">};
//	SHOW Infront{ahead};
//	END cad.
package parser

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/value"
)

// Error is a parse error with position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

type parser struct {
	toks []lexer.Token
	i    int
}

// ParseModule parses a full DBPL module.
func ParseModule(src string) (*ast.Module, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.module()
}

// ParseSetExpr parses a standalone set expression such as
// {EACH r IN Rel: TRUE}; used by tests and the programmatic API.
func ParseSetExpr(src string) (*ast.SetExpr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s, err := p.setExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseRange parses a standalone range expression such as
// Infront[hidden_by("table")]{ahead}.
func ParseRange(src string) (*ast.Range, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	r, err := p.rangeExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return r, nil
}

// ParsePred parses a standalone predicate; used by tests.
func ParsePred(src string) (ast.Pred, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pr, err := p.pred()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return pr, nil
}

// ---------------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------------

func (p *parser) cur() lexer.Token  { return p.toks[p.i] }
func (p *parser) next() lexer.Token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k lexer.Kind) bool {
	return p.toks[p.i].Kind == k
}
func (p *parser) accept(k lexer.Kind) bool {
	if p.at(k) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	t := p.cur()
	return t, &Error{Line: t.Line, Col: t.Col,
		Msg: fmt.Sprintf("expected %s, found %s", k, t)}
}

func (p *parser) expectEOF() error {
	if p.at(lexer.EOF) {
		return nil
	}
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col,
		Msg: fmt.Sprintf("unexpected %s after expression", t)}
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) pos() ast.Pos {
	t := p.cur()
	return ast.Pos{Line: t.Line, Col: t.Col}
}

func (p *parser) ident() (string, ast.Pos, error) {
	pos := p.pos()
	t, err := p.expect(lexer.IDENT)
	if err != nil {
		return "", pos, err
	}
	return t.Text, pos, nil
}

// ---------------------------------------------------------------------------
// Modules and declarations
// ---------------------------------------------------------------------------

func (p *parser) module() (*ast.Module, error) {
	if _, err := p.expect(lexer.KwMODULE); err != nil {
		return nil, err
	}
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	m := &ast.Module{Name: name}
	for {
		switch p.cur().Kind {
		case lexer.KwTYPE:
			d, err := p.typeDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case lexer.KwVAR:
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case lexer.KwSELECTOR:
			d, err := p.selectorDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case lexer.KwCONSTRUCTOR:
			d, err := p.constructorDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case lexer.KwSHOW, lexer.IDENT:
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			m.Stmts = append(m.Stmts, s)
		case lexer.KwEND:
			p.next()
			endName, _, err := p.ident()
			if err != nil {
				return nil, err
			}
			if endName != name {
				return nil, p.errHere("module %q terminated by END %s", name, endName)
			}
			if _, err := p.expect(lexer.Dot); err != nil {
				return nil, err
			}
			return m, nil
		default:
			return nil, p.errHere("expected declaration, statement, or END, found %s", p.cur())
		}
	}
}

func (p *parser) typeDecl() (*ast.TypeDecl, error) {
	pos := p.pos()
	p.next() // TYPE
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Eq); err != nil {
		return nil, err
	}
	te, err := p.typeExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return &ast.TypeDecl{Name: name, Type: te, Pos: pos}, nil
}

func (p *parser) typeExpr() (ast.TypeExpr, error) {
	pos := p.pos()
	switch p.cur().Kind {
	case lexer.KwRANGE:
		p.next()
		lo, err := p.expect(lexer.INT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.DotDot); err != nil {
			return nil, err
		}
		hi, err := p.expect(lexer.INT)
		if err != nil {
			return nil, err
		}
		return ast.RangeTypeExpr{Lo: lo.Int, Hi: hi.Int, Pos: pos}, nil

	case lexer.KwRECORD:
		p.next()
		var fields []ast.FieldGroup
		for {
			names, err := p.identList()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.Colon); err != nil {
				return nil, err
			}
			ft, err := p.typeExpr()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ast.FieldGroup{Names: names, Type: ft})
			if !p.accept(lexer.Semi) {
				break
			}
			if p.at(lexer.KwEND) {
				break
			}
		}
		if _, err := p.expect(lexer.KwEND); err != nil {
			return nil, err
		}
		return ast.RecordTypeExpr{Fields: fields, Pos: pos}, nil

	case lexer.KwRELATION:
		p.next()
		var key []string
		if p.at(lexer.IDENT) {
			ks, err := p.identList()
			if err != nil {
				return nil, err
			}
			key = ks
		}
		if _, err := p.expect(lexer.KwOF); err != nil {
			return nil, err
		}
		elem, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		return ast.RelationTypeExpr{Key: key, Elem: elem, Pos: pos}, nil

	case lexer.KwINTEGER:
		p.next()
		return ast.NamedType{Name: "INTEGER", Pos: pos}, nil
	case lexer.KwCARDINAL:
		p.next()
		return ast.NamedType{Name: "CARDINAL", Pos: pos}, nil
	case lexer.KwSTRINGT:
		p.next()
		return ast.NamedType{Name: "STRING", Pos: pos}, nil
	case lexer.KwBOOLEAN:
		p.next()
		return ast.NamedType{Name: "BOOLEAN", Pos: pos}, nil
	case lexer.IDENT:
		name, _, _ := p.ident()
		return ast.NamedType{Name: name, Pos: pos}, nil
	}
	return nil, p.errHere("expected type expression, found %s", p.cur())
}

func (p *parser) identList() ([]string, error) {
	var names []string
	for {
		name, _, err := p.ident()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.accept(lexer.Comma) {
			return names, nil
		}
	}
}

func (p *parser) varDecl() (*ast.VarDecl, error) {
	pos := p.pos()
	p.next() // VAR
	names, err := p.identList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	te, err := p.typeExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return &ast.VarDecl{Names: names, Type: te, Pos: pos}, nil
}

// formalParams parses (name,name: type; name: type).
func (p *parser) formalParams() ([]ast.FormalParam, error) {
	var params []ast.FormalParam
	if _, err := p.expect(lexer.LParen); err != nil {
		return nil, err
	}
	if p.accept(lexer.RParen) {
		return params, nil
	}
	for {
		names, err := p.identList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Colon); err != nil {
			return nil, err
		}
		te, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			params = append(params, ast.FormalParam{Name: n, Type: te})
		}
		if !p.accept(lexer.Semi) {
			break
		}
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) selectorDecl() (*ast.SelectorDecl, error) {
	pos := p.pos()
	p.next() // SELECTOR
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ast.SelectorDecl{Name: name, Pos: pos}
	if p.at(lexer.LParen) {
		d.Params, err = p.formalParams()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(lexer.KwFOR); err != nil {
		return nil, err
	}
	d.ForVar, _, err = p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	d.ForType, err = p.typeExpr()
	if err != nil {
		return nil, err
	}
	// Tolerate the paper's trailing empty parameter list after the type and
	// an optional (ignored) result type annotation.
	if p.at(lexer.LParen) {
		if _, err := p.formalParams(); err != nil {
			return nil, err
		}
	}
	if p.accept(lexer.Colon) {
		if _, err := p.typeExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.KwBEGIN); err != nil {
		return nil, err
	}
	bodyPos := p.pos()
	if _, err := p.expect(lexer.KwEACH); err != nil {
		return nil, err
	}
	d.BodyVar, _, err = p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.KwIN); err != nil {
		return nil, err
	}
	inPos := p.pos()
	inVar, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if inVar != d.ForVar {
		return nil, p.errHere("selector %s body must range over %s, found %s",
			name, d.ForVar, inVar)
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	d.Where, err = p.pred()
	if err != nil {
		return nil, err
	}
	d.Branch = &ast.Branch{Pos: bodyPos, Where: d.Where, Binds: []ast.Binding{
		{Var: d.BodyVar, Range: &ast.Range{Var: d.ForVar, Pos: inPos}, Pos: bodyPos}}}
	if _, err := p.expect(lexer.KwEND); err != nil {
		return nil, err
	}
	endName, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if endName != name {
		return nil, p.errHere("selector %q terminated by END %s", name, endName)
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) constructorDecl() (*ast.ConstructorDecl, error) {
	pos := p.pos()
	p.next() // CONSTRUCTOR
	name, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ast.ConstructorDecl{Name: name, Pos: pos}
	if _, err := p.expect(lexer.KwFOR); err != nil {
		return nil, err
	}
	d.ForVar, _, err = p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	d.ForType, err = p.typeExpr()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.LParen) {
		d.Params, err = p.formalParams()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return nil, err
	}
	d.Result, err = p.typeExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.KwBEGIN); err != nil {
		return nil, err
	}
	body, err := p.branches()
	if err != nil {
		return nil, err
	}
	d.Body = body
	if _, err := p.expect(lexer.KwEND); err != nil {
		return nil, err
	}
	endName, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	if endName != name {
		return nil, p.errHere("constructor %q terminated by END %s", name, endName)
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *parser) stmt() (ast.Stmt, error) {
	pos := p.pos()
	if p.accept(lexer.KwSHOW) {
		r, err := p.rangeExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.Semi); err != nil {
			return nil, err
		}
		return &ast.Show{Expr: r, Pos: pos}, nil
	}
	target, _, err := p.ident()
	if err != nil {
		return nil, err
	}
	var suffixes []ast.Suffix
	for p.at(lexer.LBrack) || p.at(lexer.LBrace) {
		s, err := p.suffix()
		if err != nil {
			return nil, err
		}
		suffixes = append(suffixes, s)
	}
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	r, err := p.rangeExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Semi); err != nil {
		return nil, err
	}
	return &ast.Assign{Target: target, Suffixes: suffixes, Expr: r, Pos: pos}, nil
}

// ---------------------------------------------------------------------------
// Ranges and set expressions
// ---------------------------------------------------------------------------

func (p *parser) rangeExpr() (*ast.Range, error) {
	pos := p.pos()
	r := &ast.Range{Pos: pos}
	switch {
	case p.at(lexer.IDENT):
		name, _, _ := p.ident()
		r.Var = name
	case p.at(lexer.LBrace):
		s, err := p.setExpr()
		if err != nil {
			return nil, err
		}
		r.Sub = s
	default:
		return nil, p.errHere("expected relation name or set expression, found %s", p.cur())
	}
	for p.at(lexer.LBrack) || p.at(lexer.LBrace) {
		s, err := p.suffix()
		if err != nil {
			return nil, err
		}
		r.Suffixes = append(r.Suffixes, s)
	}
	return r, nil
}

func (p *parser) suffix() (ast.Suffix, error) {
	pos := p.pos()
	var kind ast.SuffixKind
	var closer lexer.Kind
	switch {
	case p.accept(lexer.LBrack):
		kind, closer = ast.SuffixSelector, lexer.RBrack
	case p.accept(lexer.LBrace):
		kind, closer = ast.SuffixConstructor, lexer.RBrace
	default:
		return ast.Suffix{}, p.errHere("expected '[' or '{', found %s", p.cur())
	}
	name, _, err := p.ident()
	if err != nil {
		return ast.Suffix{}, err
	}
	s := ast.Suffix{Kind: kind, Name: name, Pos: pos}
	if p.accept(lexer.LParen) {
		if !p.accept(lexer.RParen) {
			for {
				a, err := p.arg()
				if err != nil {
					return ast.Suffix{}, err
				}
				s.Args = append(s.Args, a)
				if !p.accept(lexer.Comma) {
					break
				}
			}
			if _, err := p.expect(lexer.RParen); err != nil {
				return ast.Suffix{}, err
			}
		}
	}
	if _, err := p.expect(closer); err != nil {
		return ast.Suffix{}, err
	}
	return s, nil
}

// arg parses one actual argument: a string/integer literal (scalar) or a
// range expression (relation or, resolved later, a scalar parameter name).
func (p *parser) arg() (ast.Arg, error) {
	switch p.cur().Kind {
	case lexer.STRING:
		t := p.next()
		return ast.Arg{Scalar: ast.Const{Val: value.Str(t.Text)}}, nil
	case lexer.INT, lexer.Minus:
		t, err := p.term()
		if err != nil {
			return ast.Arg{}, err
		}
		return ast.Arg{Scalar: t}, nil
	default:
		r, err := p.rangeExpr()
		if err != nil {
			return ast.Arg{}, err
		}
		return ast.Arg{Rel: r}, nil
	}
}

func (p *parser) setExpr() (*ast.SetExpr, error) {
	pos := p.pos()
	if _, err := p.expect(lexer.LBrace); err != nil {
		return nil, err
	}
	s := &ast.SetExpr{Pos: pos}
	if p.accept(lexer.RBrace) {
		return s, nil // empty relation literal {}
	}
	inner, err := p.branches()
	if err != nil {
		return nil, err
	}
	s.Branches = inner.Branches
	if _, err := p.expect(lexer.RBrace); err != nil {
		return nil, err
	}
	return s, nil
}

// branches parses a comma-separated union of branches (used both inside
// braces and as a constructor body between BEGIN and END).
func (p *parser) branches() (*ast.SetExpr, error) {
	s := &ast.SetExpr{Pos: p.pos()}
	for {
		br, err := p.branch()
		if err != nil {
			return nil, err
		}
		s.Branches = append(s.Branches, br)
		if !p.accept(lexer.Comma) {
			return s, nil
		}
	}
}

func (p *parser) branch() (ast.Branch, error) {
	pos := p.pos()
	br := ast.Branch{Pos: pos}
	if p.at(lexer.Lt) {
		terms, err := p.tupleTerms()
		if err != nil {
			return br, err
		}
		if p.accept(lexer.KwOF) {
			br.Target = terms
		} else {
			// Literal tuple branch: every term must be constant.
			br.Literal = terms
			return br, nil
		}
	}
	for {
		if _, err := p.expect(lexer.KwEACH); err != nil {
			return br, err
		}
		bpos := p.pos()
		// The paper abbreviates EACH f IN Rel, EACH b IN Rel as
		// EACH f,b IN Rel; accept both.
		vars, err := p.identList()
		if err != nil {
			return br, err
		}
		if _, err := p.expect(lexer.KwIN); err != nil {
			return br, err
		}
		r, err := p.rangeExpr()
		if err != nil {
			return br, err
		}
		for i, v := range vars {
			rng := r
			if i > 0 {
				rng = ast.CopyRange(r)
			}
			br.Binds = append(br.Binds, ast.Binding{Var: v, Range: rng, Pos: bpos})
		}
		// A comma continues the binding list only if followed by EACH;
		// otherwise it separates branches and is handled by the caller.
		if p.at(lexer.Comma) && p.toks[p.i+1].Kind == lexer.KwEACH {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(lexer.Colon); err != nil {
		return br, err
	}
	w, err := p.pred()
	if err != nil {
		return br, err
	}
	br.Where = w
	return br, nil
}

// tupleTerms parses <term, term, ...>.
func (p *parser) tupleTerms() ([]ast.Term, error) {
	if _, err := p.expect(lexer.Lt); err != nil {
		return nil, err
	}
	var terms []ast.Term
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		if !p.accept(lexer.Comma) {
			break
		}
	}
	if _, err := p.expect(lexer.Gt); err != nil {
		return nil, err
	}
	return terms, nil
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

func (p *parser) pred() (ast.Pred, error) {
	l, err := p.andPred()
	if err != nil {
		return nil, err
	}
	for p.accept(lexer.KwOR) {
		r, err := p.andPred()
		if err != nil {
			return nil, err
		}
		l = ast.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andPred() (ast.Pred, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.accept(lexer.KwAND) {
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = ast.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) factor() (ast.Pred, error) {
	pos := p.pos()
	switch p.cur().Kind {
	case lexer.KwNOT:
		p.next()
		f, err := p.factor()
		if err != nil {
			return nil, err
		}
		return ast.Not{P: f}, nil

	case lexer.KwTRUE:
		p.next()
		return ast.BoolLit{Val: true}, nil
	case lexer.KwFALSE:
		p.next()
		return ast.BoolLit{Val: false}, nil

	case lexer.KwSOME, lexer.KwALL:
		all := p.next().Kind == lexer.KwALL
		// Multi-variable quantification (the paper's SOME r1,r2 IN Objects)
		// desugars to nested quantifiers over the same range.
		vars, err := p.identList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.KwIN); err != nil {
			return nil, err
		}
		r, err := p.rangeExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.LParen); err != nil {
			return nil, err
		}
		body, err := p.pred()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		out := ast.Quant{All: all, Var: vars[len(vars)-1], Range: r, Body: body, Pos: pos}
		for i := len(vars) - 2; i >= 0; i-- {
			out = ast.Quant{All: all, Var: vars[i], Range: ast.CopyRange(r), Body: out, Pos: pos}
		}
		return out, nil

	case lexer.Lt:
		// <t1,...,tn> IN range — explicit tuple membership.
		terms, err := p.tupleTerms()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.KwIN); err != nil {
			return nil, err
		}
		r, err := p.rangeExpr()
		if err != nil {
			return nil, err
		}
		return ast.Member{Terms: terms, Range: r, Pos: pos}, nil

	case lexer.LParen:
		// Could parenthesize a predicate or an arithmetic term. Try the
		// predicate reading first with backtracking.
		save := p.i
		p.next()
		inner, err := p.pred()
		if err == nil {
			if _, err2 := p.expect(lexer.RParen); err2 == nil {
				// If a comparison operator follows, this was a term paren.
				if !p.atCmpOp() && !p.atArithOp() {
					return inner, nil
				}
			}
		}
		p.i = save
		return p.cmpOrMember()
	}
	return p.cmpOrMember()
}

func (p *parser) atCmpOp() bool {
	switch p.cur().Kind {
	case lexer.Eq, lexer.Ne, lexer.Lt, lexer.Le, lexer.Gt, lexer.Ge:
		return true
	}
	return false
}

func (p *parser) atArithOp() bool {
	switch p.cur().Kind {
	case lexer.Plus, lexer.Minus, lexer.Star, lexer.KwDIV, lexer.KwMOD:
		return true
	}
	return false
}

// cmpOrMember parses `term cmpop term` or `ident IN range`.
func (p *parser) cmpOrMember() (ast.Pred, error) {
	pos := p.pos()
	// Bare identifier followed by IN is tuple-variable membership.
	if p.at(lexer.IDENT) && p.toks[p.i+1].Kind == lexer.KwIN {
		v, _, _ := p.ident()
		p.next() // IN
		r, err := p.rangeExpr()
		if err != nil {
			return nil, err
		}
		return ast.Member{VarTuple: v, Range: r, Pos: pos}, nil
	}
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	var op ast.CmpOp
	switch p.cur().Kind {
	case lexer.Eq:
		op = ast.OpEq
	case lexer.Ne:
		op = ast.OpNe
	case lexer.Lt:
		op = ast.OpLt
	case lexer.Le:
		op = ast.OpLe
	case lexer.Gt:
		op = ast.OpGt
	case lexer.Ge:
		op = ast.OpGe
	default:
		return nil, p.errHere("expected comparison operator, found %s", p.cur())
	}
	p.next()
	r, err := p.term()
	if err != nil {
		return nil, err
	}
	return ast.Cmp{Op: op, L: l, R: r}, nil
}

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

func (p *parser) term() (ast.Term, error) {
	l, err := p.mulTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.ArithOp
		switch p.cur().Kind {
		case lexer.Plus:
			op = ast.OpAdd
		case lexer.Minus:
			op = ast.OpSub
		default:
			return l, nil
		}
		p.next()
		r, err := p.mulTerm()
		if err != nil {
			return nil, err
		}
		l = ast.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) mulTerm() (ast.Term, error) {
	l, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.ArithOp
		switch p.cur().Kind {
		case lexer.Star:
			op = ast.OpMul
		case lexer.KwDIV:
			op = ast.OpDiv
		case lexer.KwMOD:
			op = ast.OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.atom()
		if err != nil {
			return nil, err
		}
		l = ast.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) atom() (ast.Term, error) {
	pos := p.pos()
	switch p.cur().Kind {
	case lexer.INT:
		t := p.next()
		return ast.Const{Val: value.Int(t.Int)}, nil
	case lexer.Minus:
		p.next()
		inner, err := p.atom()
		if err != nil {
			return nil, err
		}
		if c, ok := inner.(ast.Const); ok && c.Val.Kind() == value.KindInt {
			return ast.Const{Val: value.Int(-c.Val.AsInt())}, nil
		}
		return ast.Arith{Op: ast.OpSub, L: ast.Const{Val: value.Int(0)}, R: inner}, nil
	case lexer.STRING:
		t := p.next()
		return ast.Const{Val: value.Str(t.Text)}, nil
	case lexer.KwTRUE:
		p.next()
		return ast.Const{Val: value.Bool(true)}, nil
	case lexer.KwFALSE:
		p.next()
		return ast.Const{Val: value.Bool(false)}, nil
	case lexer.LParen:
		p.next()
		inner, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return inner, nil
	case lexer.IDENT:
		name, _, _ := p.ident()
		if p.accept(lexer.Dot) {
			attr, _, err := p.ident()
			if err != nil {
				return nil, err
			}
			return ast.Field{Var: name, Attr: attr, Pos: pos}, nil
		}
		return ast.Param{Name: name, Pos: pos}, nil
	}
	return nil, p.errHere("expected term, found %s", p.cur())
}
