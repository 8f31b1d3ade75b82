// Package positivity implements the positivity constraint of section 3.3 of
// the paper, the syntactic criterion under which the DBPL compiler accepts
// constructors containing negation and universal quantification:
//
//	Definition: a DBPL expression f(Rel_1, ..., Rel_n) satisfies the
//	positivity constraint if each occurrence of a Rel_i appears under an
//	even total number of negations (NOT) and universal quantifiers (ALL).
//
// The paper's lemma states that positive expressions are monotonic in all
// their arguments, which guarantees that the fixpoint sequences of section 3.2
// converge and that semi-naive evaluation reaches the least fixpoint. Its
// proof rewrites range-coupled quantifiers into one-sorted ones and applies
// the generalized De Morgan laws (cf. [JaKo 83] and [ChHa 82]), and under that
// rewriting
//
//	ALL x IN R (p)  =  NOT SOME x IN R (NOT p)
//
// puts R under one negation and p under two. So "under ALL" is read here as
// the quantifier's range position: an ALL's range is one level deeper, its
// body is not. (Counting the body instead is not a monotonicity criterion: it
// accepts ALL x IN Rel{c} (...), which loses tuples as Rel{c} grows, and
// rejects ALL x IN O (... OR x IN Rel{c}), which does not.) NOT adds one
// level; SOME and IN ranges add none.
//
// A selector application passes its inputs through the selector's body, so an
// occurrence feeding a selector also takes the selector's polarity in that
// input: the set of parities at which the input occurs in the selector's
// branch, computed by the same walk. An occurrence in the range's prefix feeds
// the selector's FOR formal, one in an argument feeds the matching formal, and
// either then feeds the FOR formal of every later selector suffix. An input
// the selector never reads contributes nothing; one it reads at both parities
// (ALL u IN R (u.a <= t.a), which keeps only R's maxima) makes the occurrence
// a violation whatever its own depth. A constructor suffix adds nothing: its
// callee is judged by the same rule on its own declaration.
//
// The package also implements the rewriting used in the lemma's proof sketch:
// ToNNF pushes negations inward, flipping quantifiers and applying the double
// negation law, so tests can confirm that a positive expression rewrites to a
// NOT-free (over the tracked names) normal form.
package positivity

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Selectors resolves a selector name to its declaration, or nil. A nil
// resolver resolves none, and an unresolved selector passes its inputs
// through unchanged.
type Selectors func(name string) *ast.SelectorDecl

// Occurrence records one use of a tracked relation name or constructor
// application and the polarity of its position.
type Occurrence struct {
	Name string
	// Depth is the number of enclosing NOTs and ALL ranges, plus the selector
	// inputs on the way that read their input at odd depth only.
	Depth int
	// Mixed is set when some selector input on the way reads its input at
	// both parities.
	Mixed bool
	Pos   ast.Pos
}

// Even reports whether the occurrence satisfies the positivity constraint.
func (o Occurrence) Even() bool { return !o.Mixed && o.Depth%2 == 0 }

// Report is the outcome of a positivity analysis.
type Report struct {
	Occurrences []Occurrence
	Violations  []Occurrence // odd-depth or mixed occurrences
}

// Positive reports whether every occurrence appears at even depth.
func (r Report) Positive() bool { return len(r.Violations) == 0 }

// Error is a positivity-constraint violation: the section 3.3 criterion the
// DBPL compiler enforces on constructor declarations. It carries the full
// Report so callers can inspect the violating occurrences via errors.As.
type Error struct {
	// Constructor names the rejected constructor; empty when the analysis
	// ran over a bare set expression.
	Constructor string
	Report      Report
}

// Error implements error.
func (e *Error) Error() string {
	parts := make([]string, len(e.Report.Violations))
	for i, v := range e.Report.Violations {
		if v.Mixed {
			parts[i] = fmt.Sprintf("%s at %s (through a selector input read at both polarities)", v.Name, v.Pos)
		} else {
			parts[i] = fmt.Sprintf("%s at %s (depth %d)", v.Name, v.Pos, v.Depth)
		}
	}
	sort.Strings(parts)
	return "positivity constraint violated: " + strings.Join(parts, "; ")
}

// Error returns nil for positive reports, or a *Error listing the violating
// occurrences.
func (r Report) Error() error {
	return r.Err("")
}

// Err is Error with the rejected constructor's name attached.
func (r Report) Err(constructor string) error {
	if r.Positive() {
		return nil
	}
	return &Error{Constructor: constructor, Report: r}
}

// CheckConstructor analyses a constructor body, tracking its base-relation
// formal, its relation-typed formal parameters, and every constructor
// application inside the body (the recursive occurrences: grounding makes
// each one an equation of the system the body belongs to). This is the check
// the paper's compiler performs at the type-checking level (section 4).
func CheckConstructor(d *ast.ConstructorDecl, sels Selectors) Report {
	tracked := map[string]bool{d.ForVar: true}
	for _, p := range d.Params {
		if _, ok := p.Type.(ast.NamedType); ok {
			// Relation-typed vs scalar-typed formals cannot be separated
			// syntactically here; tracking scalars is harmless since scalar
			// parameters never occur as ranges.
			tracked[p.Name] = true
		}
	}
	w := newWalker(tracked, true, sels)
	w.walkSet(d.Body, level{})
	return w.finish()
}

// CheckPred analyses a bare predicate (a selection predicate), tracking
// occurrences of the given relation names (nil tracked = track every name that
// occurs in a range, and every constructor application).
func CheckPred(p ast.Pred, tracked map[string]bool, sels Selectors) Report {
	w := newWalker(tracked, tracked == nil, sels)
	w.walkPred(p, level{})
	return w.finish()
}

// level is the polarity of a position.
type level struct {
	depth int
	mixed bool
}

// parities is the set of parities at which a selector reads one input.
type parities uint8

const (
	evenParity parities = 1 << iota
	oddParity
)

// through is the level of what an input at l feeds, given the parities at
// which the consumer reads that input.
func (l level) through(p parities) level {
	switch p {
	case oddParity:
		l.depth++
	case evenParity | oddParity:
		l.mixed = true
	}
	return l
}

type selectorInput struct {
	decl   *ast.SelectorDecl
	formal string
}

type walker struct {
	tracked map[string]bool // nil: every name
	apps    bool            // track constructor applications
	sels    Selectors
	occs    []Occurrence
	// inputs memoizes selector polarities, shared by the nested walks that
	// compute them.
	inputs map[selectorInput]parities
}

func newWalker(tracked map[string]bool, apps bool, sels Selectors) *walker {
	return &walker{tracked: tracked, apps: apps, sels: sels, inputs: make(map[selectorInput]parities)}
}

func (w *walker) finish() Report {
	rep := Report{Occurrences: w.occs}
	for _, o := range w.occs {
		if !o.Even() {
			rep.Violations = append(rep.Violations, o)
		}
	}
	return rep
}

func (w *walker) note(name string, l level, pos ast.Pos) {
	w.occs = append(w.occs, Occurrence{Name: name, Depth: l.depth, Mixed: l.mixed, Pos: pos})
}

func (w *walker) walkSet(s *ast.SetExpr, l level) {
	if s == nil {
		return
	}
	for i := range s.Branches {
		w.walkBranch(&s.Branches[i], l)
	}
}

func (w *walker) walkBranch(br *ast.Branch, l level) {
	for j := range br.Binds {
		w.walkRange(br.Binds[j].Range, l)
	}
	if br.Where != nil {
		w.walkPred(br.Where, l)
	}
}

func (w *walker) walkRange(r *ast.Range, l level) {
	if r == nil {
		return
	}
	// after[i] is the level of suffix i's output: l through the FOR formal of
	// every later selector suffix. The prefix ends at the level of what it
	// feeds the first suffix.
	after := make([]level, len(r.Suffixes))
	for i := len(r.Suffixes) - 1; i >= 0; i-- {
		after[i] = l
		l = l.through(w.input(r.Suffixes[i], -1))
	}
	if r.Var != "" && (w.tracked == nil || w.tracked[r.Var]) {
		w.note(r.Var, l, r.Pos)
	}
	w.walkSet(r.Sub, l)
	for i, suf := range r.Suffixes {
		for j, a := range suf.Args {
			if a.Rel != nil {
				w.walkRange(a.Rel, after[i].through(w.input(suf, j)))
			}
		}
		if suf.Kind == ast.SuffixConstructor && w.apps {
			app := &ast.Range{Var: r.Var, Sub: r.Sub, Suffixes: r.Suffixes[:i+1]}
			w.note(app.String(), after[i], suf.Pos)
		}
	}
}

func (w *walker) walkPred(p ast.Pred, l level) {
	switch q := p.(type) {
	case ast.And:
		w.walkPred(q.L, l)
		w.walkPred(q.R, l)
	case ast.Or:
		w.walkPred(q.L, l)
		w.walkPred(q.R, l)
	case ast.Not:
		l.depth++
		w.walkPred(q.P, l)
	case ast.Quant:
		// ALL x IN R (p) = NOT SOME x IN R (NOT p): the range is one level
		// deeper, the body is not.
		rl := l
		if q.All {
			rl.depth++
		}
		w.walkRange(q.Range, rl)
		w.walkPred(q.Body, l)
	case ast.Member:
		w.walkRange(q.Range, l)
	}
}

// input returns the parities at which suffix suf reads its argument arg, or
// its FOR formal when arg is -1. A constructor suffix, an unresolved
// selector and an input the selector never reads all read at even parity:
// they add nothing.
func (w *walker) input(suf ast.Suffix, arg int) parities {
	if suf.Kind != ast.SuffixSelector || w.sels == nil {
		return evenParity
	}
	decl := w.sels(suf.Name)
	if decl == nil || arg >= len(decl.Params) {
		return evenParity
	}
	key := selectorInput{decl, decl.ForVar}
	if arg >= 0 {
		key.formal = decl.Params[arg].Name
	}
	p, ok := w.inputs[key]
	if !ok {
		// A selector reaching itself is rejected by the type checker; read
		// at both parities until its polarity is known.
		w.inputs[key] = evenParity | oddParity
		sub := &walker{tracked: map[string]bool{key.formal: true}, sels: w.sels, inputs: w.inputs}
		sub.walkBranch(decl.Branch, level{})
		for _, o := range sub.occs {
			switch {
			case o.Mixed:
				p |= evenParity | oddParity
			case o.Even():
				p |= evenParity
			default:
				p |= oddParity
			}
		}
		w.inputs[key] = p
	}
	if p == 0 {
		return evenParity
	}
	return p
}

// ---------------------------------------------------------------------------
// Negation normal form (the lemma's rewriting)
// ---------------------------------------------------------------------------

// ToNNF pushes negations inward using De Morgan's laws, the range-coupled
// quantifier dualities
//
//	NOT ALL r IN R (p)  =  SOME r IN R (NOT p)
//	NOT SOME r IN R (p) =  ALL r IN R (NOT p)
//
// and the double-negation law, mirroring the proof sketch of the positivity
// lemma. Comparisons are complemented directly (= <-> #, < <-> >=, ...), so
// the result contains NOT only immediately above Member predicates.
func ToNNF(p ast.Pred) ast.Pred {
	return nnf(p, false)
}

func nnf(p ast.Pred, neg bool) ast.Pred {
	switch q := p.(type) {
	case ast.BoolLit:
		if neg {
			return ast.BoolLit{Val: !q.Val}
		}
		return q
	case ast.Cmp:
		if neg {
			return ast.Cmp{Op: complementCmp(q.Op), L: q.L, R: q.R}
		}
		return q
	case ast.And:
		if neg {
			return ast.Or{L: nnf(q.L, true), R: nnf(q.R, true)}
		}
		return ast.And{L: nnf(q.L, false), R: nnf(q.R, false)}
	case ast.Or:
		if neg {
			return ast.And{L: nnf(q.L, true), R: nnf(q.R, true)}
		}
		return ast.Or{L: nnf(q.L, false), R: nnf(q.R, false)}
	case ast.Not:
		return nnf(q.P, !neg)
	case ast.Quant:
		out := ast.Quant{Var: q.Var, Range: q.Range, Pos: q.Pos}
		if neg {
			out.All = !q.All
			out.Body = nnf(q.Body, true)
		} else {
			out.All = q.All
			out.Body = nnf(q.Body, false)
		}
		return out
	case ast.Member:
		if neg {
			return ast.Not{P: q}
		}
		return q
	default:
		panic(fmt.Sprintf("positivity: ToNNF: unknown predicate %T", p))
	}
}

func complementCmp(op ast.CmpOp) ast.CmpOp {
	switch op {
	case ast.OpEq:
		return ast.OpNe
	case ast.OpNe:
		return ast.OpEq
	case ast.OpLt:
		return ast.OpGe
	case ast.OpLe:
		return ast.OpGt
	case ast.OpGt:
		return ast.OpLe
	default:
		return ast.OpLt
	}
}
