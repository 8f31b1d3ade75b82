// Package compile implements the three-level compilation and optimization
// framework of section 4 of the paper:
//
//   - Type-checking level: static checking of the module, positivity
//     analysis of every constructor, construction of (a rough version of)
//     the augmented quant graphs, and partitioning of the constructor
//     definitions into disconnected components.
//
//   - Query compilation level: per statement, instantiation of the
//     constructor definition graphs, detection of recursive cycles (which
//     select a fixpoint algorithm), and classification of the evaluation
//     strategy.
//
//   - Runtime level: execution of the compiled statements against a
//     database of relation variables, with selector guards enforced on
//     assignment. RunStmt is that level, one statement at a time: the caller
//     supplies the environment the statement reads and the store or
//     transaction it writes through, so module execution and transactions
//     share one executor. A guard is its selector's application (section
//     2.3): V[sel(args)] := rex holds iff rex[sel(args)] = rex, the selector
//     evaluated with its FOR variable bound to rex by the same pipeline as a
//     read of rex[sel(args)]. CheckGuards is that test, at write time and
//     again at a transaction's commit.
package compile

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/positivity"
	"repro/internal/quantgraph"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/typecheck"
	"repro/internal/value"
)

// Options configures compilation.
type Options struct {
	// Strict enforces the positivity constraint at compile time, as the
	// paper's DBPL compiler does. Non-strict compilation admits
	// non-monotonic constructors, evaluated naively with oscillation
	// detection (section 3.3's strange example).
	Strict bool
}

// Strategy classifies how a statement's constructed ranges are evaluated.
type Strategy uint8

// Strategies.
const (
	// StrategyPlain means no constructor applications occur.
	StrategyPlain Strategy = iota
	// StrategyDecompile means constructors occur but none is recursive:
	// the applications unfold into subqueries over base relations.
	StrategyDecompile
	// StrategyFixpoint means a recursive cycle occurs: a least-fixpoint
	// algorithm is generated (semi-naive by default).
	StrategyFixpoint
)

func (s Strategy) String() string {
	switch s {
	case StrategyPlain:
		return "plain"
	case StrategyDecompile:
		return "decompile"
	default:
		return "fixpoint"
	}
}

// StmtPlan is the query-compilation-level record for one statement.
type StmtPlan struct {
	Stmt         ast.Stmt
	Strategy     Strategy
	Constructors []string // constructor names applied (transitively)
}

// Program is a compiled module.
type Program struct {
	Module   *ast.Module
	Checker  *typecheck.Checker
	Registry *core.Registry
	Graph    *quantgraph.Graph
	// Positivity holds the per-constructor analysis from the type-checking
	// level (each checked signature's report).
	Positivity map[string]positivity.Report
	// Recursive lists constructors on cycles of the augmented graph.
	Recursive []string
	// Components partitions constructor names into disconnected subgraphs
	// (the preliminary partitioning of section 4).
	Components [][]string
	// Plans holds the per-statement strategies.
	Plans []StmtPlan
}

// Compile parses, checks, and plans a DBPL module.
func Compile(src string, opts Options) (*Program, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return CompileModule(m, opts)
}

// CompileModule compiles an already-parsed module with a fresh checker and
// registry.
func CompileModule(m *ast.Module, opts Options) (*Program, error) {
	chk := typecheck.New()
	chk.Strict = opts.Strict
	return CompileModuleInto(m, chk, core.NewRegistry())
}

// CompileModuleInto compiles a module into an existing checker and registry,
// accumulating declarations across modules, under the strictness the checker
// already carries. An error leaves both partially extended: the package dbpl
// façade, which executes successive modules against one database this way,
// compiles into clones and keeps them only on success.
func CompileModuleInto(m *ast.Module, chk *typecheck.Checker, reg *core.Registry) (*Program, error) {
	if err := chk.CheckModule(m); err != nil {
		return nil, err
	}

	p := &Program{
		Module:     m,
		Checker:    chk,
		Registry:   reg,
		Positivity: make(map[string]positivity.Report),
	}

	// Register constructors with the engine registry and record positivity.
	var decls []*ast.ConstructorDecl
	for _, d := range m.Decls {
		cd, ok := d.(*ast.ConstructorDecl)
		if !ok {
			continue
		}
		decls = append(decls, cd)
		sig := chk.Constructors[cd.Name]
		if _, err := p.Registry.Register(cd, sig.Result, sig.Positivity); err != nil {
			return nil, err
		}
		p.Positivity[cd.Name] = sig.Positivity
	}

	// Type-checking level: augmented quant graph, partitioning, cycles.
	p.Graph = quantgraph.Build(decls)
	p.Recursive = p.Graph.RecursiveConstructors()
	p.Components = constructorComponents(p.Graph)

	// Query compilation level: classify each statement.
	recursive := make(map[string]bool, len(p.Recursive))
	for _, n := range p.Recursive {
		recursive[n] = true
	}
	deps := constructorDeps(decls)
	for _, s := range m.Stmts {
		plan := StmtPlan{Stmt: s, Strategy: StrategyPlain}
		names := stmtConstructors(s, deps)
		if len(names) > 0 {
			plan.Strategy = StrategyDecompile
			for _, n := range names {
				if recursive[n] {
					plan.Strategy = StrategyFixpoint
					break
				}
			}
			plan.Constructors = names
		}
		p.Plans = append(p.Plans, plan)
	}
	return p, nil
}

// constructorComponents projects graph components onto constructor names.
func constructorComponents(g *quantgraph.Graph) [][]string {
	var out [][]string
	for _, comp := range g.Components() {
		var names []string
		for _, id := range comp {
			n := g.Nodes[id]
			if n.Kind == quantgraph.HeadNode {
				names = append(names, n.Constructor)
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			out = append(out, names)
		}
	}
	return out
}

// constructorDeps maps each constructor to the constructors its body applies.
func constructorDeps(decls []*ast.ConstructorDecl) map[string][]string {
	deps := make(map[string][]string, len(decls))
	for _, d := range decls {
		seen := make(map[string]bool)
		ast.WalkRanges(d.Body, func(r *ast.Range) {
			for _, s := range r.Suffixes {
				if s.Kind == ast.SuffixConstructor {
					seen[s.Name] = true
				}
			}
		})
		var names []string
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
		deps[d.Name] = names
	}
	return deps
}

// stmtConstructors returns all constructor names a statement applies,
// transitively through constructor bodies.
func stmtConstructors(s ast.Stmt, deps map[string][]string) []string {
	seen := make(map[string]bool)
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, d := range deps[name] {
			visit(d)
		}
	}
	collect := func(r *ast.Range) {
		for _, suf := range r.Suffixes {
			if suf.Kind == ast.SuffixConstructor {
				visit(suf.Name)
			}
		}
	}
	switch t := s.(type) {
	case *ast.Show:
		walkRangeDeep(t.Expr, collect)
	case *ast.Assign:
		walkRangeDeep(t.Expr, collect)
		for i := range t.Suffixes {
			if t.Suffixes[i].Kind == ast.SuffixConstructor {
				visit(t.Suffixes[i].Name)
			}
		}
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func walkRangeDeep(r *ast.Range, fn func(*ast.Range)) {
	fn(r)
	if r.Sub != nil {
		ast.WalkRanges(r.Sub, fn)
	}
	for i := range r.Suffixes {
		for _, a := range r.Suffixes[i].Args {
			if a.Rel != nil {
				walkRangeDeep(a.Rel, fn)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Runtime level
// ---------------------------------------------------------------------------

// Assigner is the write side of the runtime level: the one method
// *store.Database and *store.Tx share, so a statement executes the same way
// against the store and inside a transaction.
type Assigner interface {
	Assign(name string, rel *relation.Relation) error
}

// GuardViolationError reports a tuple rejected by a selector guard: the first
// tuple of the assigned value, in its iteration order, that the selector's
// application over the value does not return.
type GuardViolationError struct {
	Variable string
	Guard    string
	Tuple    value.Tuple
}

// Error implements error.
func (e *GuardViolationError) Error() string {
	return fmt.Sprintf("assignment to %s[%s] rejected: tuple %s violates the selector predicate",
		e.Variable, e.Guard, e.Tuple)
}

// DeclareVars declares the relation variables of the checked module that the
// database does not have yet (a re-executed schema module re-declares what a
// recovered store already holds), so they exist before its statements run.
func DeclareVars(chk *typecheck.Checker, db *store.Database) error {
	for name, rt := range chk.Vars {
		if _, ok := db.Type(name); !ok {
			if err := db.Declare(name, rt); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunStmt executes one statement: env holds the declarations and the relation
// bindings the statement reads, db takes its write, and out its SHOW rendering
// (nil discards it). An assignment reports the variable it wrote and the
// selector suffixes it was guarded by — the paper's Infront[refint] := rex
// (section 2.3), checked by CheckGuards before the write; target is "" for
// SHOW.
func RunStmt(env *eval.Env, db Assigner, out io.Writer, s ast.Stmt) (target string, guards []ast.Suffix, err error) {
	switch t := s.(type) {
	case *ast.Show:
		rel, err := env.Range(t.Expr)
		if err != nil || out == nil {
			return "", nil, err
		}
		// Stream tuple by tuple instead of rendering one big string.
		if _, err := fmt.Fprintf(out, "%s = ", t.Expr); err != nil {
			return "", nil, err
		}
		if _, err := rel.WriteTo(out); err != nil {
			return "", nil, err
		}
		_, err = io.WriteString(out, "\n")
		return "", nil, err
	case *ast.Assign:
		for _, suf := range t.Suffixes {
			if suf.Kind != ast.SuffixSelector {
				return "", nil, fmt.Errorf("assignment through a constructed relation %q is not defined (constructors derive, they do not store)", suf.Name)
			}
		}
		rel, err := env.Range(t.Expr)
		if err != nil {
			return "", nil, err
		}
		if err := CheckGuards(env, t.Target, rel, t.Suffixes); err != nil {
			return "", nil, err
		}
		if err := db.Assign(t.Target, rel); err != nil {
			return "", nil, err
		}
		return t.Target, t.Suffixes, nil
	default:
		return "", nil, fmt.Errorf("unknown statement %T", s)
	}
}

// CheckGuards checks rel, a value assigned to the variable name, against the
// selector applications guarding the assignment: each must return all of rel
// (rel[sel(args)] = rel). It fails with a *GuardViolationError naming the
// first tuple of rel the first failing selector drops.
func CheckGuards(env *eval.Env, name string, rel *relation.Relation, guards []ast.Suffix) error {
	for i := range guards {
		sel, err := env.Select(&guards[i], rel, false, false)
		if err != nil {
			return err
		}
		if sel.Len() == rel.Len() {
			continue
		}
		var dropped value.Tuple
		rel.Each(func(t value.Tuple) bool {
			if !sel.Contains(t) {
				dropped = t
			}
			return dropped == nil
		})
		return &GuardViolationError{Variable: name, Guard: guards[i].Name, Tuple: dropped}
	}
	return nil
}
