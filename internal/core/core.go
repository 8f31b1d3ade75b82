// Package core implements the paper's primary contribution: the constructor
// language construct (section 3). A constructor, applied to a base relation,
// "causes relation membership to become true for all tuples constructable
// through the predicates provided by the constructor definition".
//
// The semantics follows section 3.2 exactly: every constructor application
// apply_j = Actrel{c_j(...)} reachable from a query is *grounded* into an
// instance of a system of equations
//
//	apply_j^(k+1) = g_j(apply_0^k, ..., apply_l^k)
//
// where g_j is the constructor body with formal parameters replaced by their
// actual values, and the joint limit (least fixpoint, [Tars 55]) is computed
// by package fixpoint — naively (the paper's REPEAT loops) or semi-naively.
//
// Mutual recursion (ahead/above in section 3.1) falls out of the grounding:
// the recursive applications inside a body resolve to instances of the same
// system, identified by (constructor, base-relation value, argument values).
package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fixpoint"
	"repro/internal/positivity"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Mode selects the fixpoint strategy.
type Mode uint8

// Fixpoint strategies.
const (
	// SemiNaive is the default differential strategy; it requires
	// monotonicity and therefore falls back to Naive for constructors that
	// fail the positivity check (possible only with a non-strict checker).
	SemiNaive Mode = iota
	// Naive is the paper's REPEAT ... UNTIL loop.
	Naive
)

func (m Mode) String() string {
	if m == Naive {
		return "naive"
	}
	return "semi-naive"
}

// Constructor is a registered constructor definition together with its
// resolved result type and the checker's positivity analysis.
type Constructor struct {
	Decl   *ast.ConstructorDecl
	Result schema.RelationType
	Report positivity.Report
}

// Registry holds constructor definitions. Lookups are safe for concurrent
// use with registration (queries resolve constructors while modules are
// being executed).
type Registry struct {
	mu           sync.RWMutex
	constructors map[string]*Constructor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{constructors: make(map[string]*Constructor)}
}

// Clone returns an independent registry holding the same definitions, so a
// module's constructors can be registered into the copy and the copy dropped
// if the module is rejected.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Registry{constructors: maps.Clone(r.constructors)}
}

// Register adds a constructor with its resolved result type and the
// positivity report the type checker computed for it (the "type-checking
// level" of section 4, where a strict checker has already rejected
// violations). Grounding reads the report: a system with a non-positive
// instance is solved naively.
func (r *Registry) Register(decl *ast.ConstructorDecl, result schema.RelationType, rep positivity.Report) (*Constructor, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.constructors[decl.Name]; dup {
		return nil, fmt.Errorf("constructor %q already defined", decl.Name)
	}
	c := &Constructor{Decl: decl, Result: result, Report: rep}
	r.constructors[decl.Name] = c
	return c, nil
}

// Lookup returns a registered constructor.
func (r *Registry) Lookup(name string) (*Constructor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.constructors[name]
	return c, ok
}

// Names returns the registered constructor names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.constructors))
	for n := range r.constructors {
		out = append(out, n)
	}
	return out
}

// Stats describes the evaluation of one Apply call.
type Stats struct {
	Mode        Mode
	Instances   int // size of the grounded equation system
	Rounds      int
	Evaluations int
	Tuples      int // tuples in the root application's value
	MaxDelta    int // largest per-round delta (semi-naive only)
}

// ViewStats describes how a materialized-view layer answered one constructor
// application: served unchanged ("hit"), computed and installed ("miss"), or
// brought up to date by resuming the fixpoint over a signed base delta
// ("maintained", with the tuples added to and removed from the base and the
// maintenance rounds).
type ViewStats struct {
	Outcome string // "hit", "miss", or "maintained"
	Delta   int    // base tuples added (maintained only)
	Removed int    // base tuples removed (maintained only)
	Rounds  int    // maintenance fixpoint rounds (maintained only)
}

// ViewProvider intercepts constructor applications with a materialized
// derived-relation cache (package matview). Apply either serves the
// application (ok true) or declines (ok false), in which case the engine
// computes it directly. A provider computing on a miss must use the engine's
// Ground/Solve — which never consult the provider — not ApplyContext.
type ViewProvider interface {
	Apply(ctx context.Context, en *Engine, name string, base *relation.Relation, args []eval.Resolved) (*relation.Relation, bool, error)
}

// Engine evaluates constructor applications. It implements
// eval.ConstructorResolver, so installing it in an eval.Env makes ranges like
// Infront{ahead} work inside arbitrary queries.
type Engine struct {
	Registry *Registry
	// GlobalEnv supplies selector declarations, named relation variables
	// (selector bodies may reference globals, like refint's Objects), and
	// relation types.
	GlobalEnv *eval.Env
	Mode      Mode
	// MaxRounds bounds iterations of non-monotonic systems; 0 means a
	// large default.
	MaxRounds int
	// Parallelism bounds the worker fan-out of fixpoint rounds, the only
	// parallel evaluation: when the grounded system has more than one
	// instance, up to Parallelism equations are evaluated concurrently per
	// round. 0 or 1 keeps rounds serial.
	Parallelism int
	// Views, when non-nil, is consulted before every constructor application;
	// a serving provider replaces the ground-and-solve path entirely. Set it
	// before sharing the engine across goroutines.
	Views ViewProvider
	// Applies counts completed top-level Apply calls on this engine. It is
	// atomic because engines are shared across concurrent queries.
	Applies atomic.Uint64

	statsMu sync.Mutex
	// lastStats records the most recent top-level Apply. Its zero value is a
	// legitimate outcome, so "did anything run" is answered by Applies, not
	// by comparing LastStats against Stats{}.
	lastStats Stats
	// lastView records the most recent view-provider outcome; viewEvents
	// counts them (same convention as Applies vs lastStats).
	lastView   ViewStats
	viewEvents uint64
}

// LastStats returns the stats of the most recent completed top-level Apply.
func (en *Engine) LastStats() Stats {
	en.statsMu.Lock()
	defer en.statsMu.Unlock()
	return en.lastStats
}

// SetLastStats overwrites the recorded stats. It exists for embedders and
// tests that simulate an Apply; ApplyContext calls it internally.
func (en *Engine) SetLastStats(s Stats) {
	en.statsMu.Lock()
	en.lastStats = s
	en.statsMu.Unlock()
}

// NoteView records a view-provider outcome for this engine, surfaced by
// EXPLAIN ANALYZE. The provider calls it once per served or missed
// application.
func (en *Engine) NoteView(vs ViewStats) {
	en.statsMu.Lock()
	en.lastView = vs
	en.viewEvents++
	en.statsMu.Unlock()
}

// LastView returns the most recent view-provider outcome and whether any was
// recorded.
func (en *Engine) LastView() (ViewStats, bool) {
	en.statsMu.Lock()
	defer en.statsMu.Unlock()
	return en.lastView, en.viewEvents > 0
}

// NewEngine creates an engine over a registry and global environment and
// installs itself as the environment's constructor resolver.
func NewEngine(reg *Registry, global *eval.Env) *Engine {
	en := &Engine{Registry: reg, GlobalEnv: global, Mode: SemiNaive}
	global.Constructors = en
	return en
}

// ApplyConstructor implements eval.ConstructorResolver.
func (en *Engine) ApplyConstructor(ctx context.Context, name string, base *relation.Relation, args []eval.Resolved) (*relation.Relation, error) {
	return en.ApplyContext(ctx, name, base, args)
}

// Apply evaluates Actrel{c(args)}: grounds the reachable application system
// and computes its least fixpoint, returning the root application's value.
func (en *Engine) Apply(name string, base *relation.Relation, args []eval.Resolved) (*relation.Relation, error) {
	return en.ApplyContext(context.Background(), name, base, args)
}

// ApplyContext is Apply with cancellation: ctx is checked between fixpoint
// rounds and inside the branch loops of every equation evaluation, so a
// runaway recursive constructor can be aborted. With a ViewProvider attached,
// the provider is consulted first and may serve the application from a
// materialized cache.
func (en *Engine) ApplyContext(ctx context.Context, name string, base *relation.Relation, args []eval.Resolved) (*relation.Relation, error) {
	if en.Views != nil {
		if rel, ok, err := en.Views.Apply(ctx, en, name, base, args); err != nil || ok {
			return rel, err
		}
	}
	sys, err := en.Ground(ctx, name, base, args)
	if err != nil {
		return nil, err
	}
	state, _, err := sys.Solve(ctx)
	if err != nil {
		return nil, err
	}
	return sys.Root(state), nil
}

// System is one grounded constructor-application system: the reachable
// equation instances with formals bound, ready to be solved. A grounded
// system is reusable — a materialized-view layer caches it together with its
// converged state and later resumes the fixpoint over base deltas.
type System struct {
	en      *Engine
	sys     *system
	name    string
	rootKey string
	mode    Mode
	// allowNonMono mirrors the presence of non-positive instances.
	allowNonMono bool
	// base is the root application's base relation (updated by Resume).
	base *relation.Relation
}

// Ground builds the equation system of one constructor application without
// solving it. The instance environments snapshot the engine's global bindings,
// so the system is independent of later store writes.
func (en *Engine) Ground(ctx context.Context, name string, base *relation.Relation, args []eval.Resolved) (*System, error) {
	sys := &system{
		engine:  en,
		ctx:     ctx,
		byKey:   make(map[string]*instance),
		fps:     make(map[*relation.Relation]string),
		deps:    make(map[string]bool),
		depSels: make(map[string]bool),
	}
	rootKey, err := sys.ground(name, base, args)
	if err != nil {
		return nil, err
	}
	s := &System{en: en, sys: sys, name: name, rootKey: rootKey, mode: en.Mode, base: base}
	for _, inst := range sys.instances {
		if v := inst.cons.Report.Violations; len(v) > 0 {
			s.mode = Naive // semi-naive requires monotonicity
			s.allowNonMono = true
			sys.markNonResumable(fmt.Sprintf("constructor %s: %s occurs in a non-monotone position",
				inst.cons.Decl.Name, v[0].Name))
		}
	}
	return s, nil
}

// RootIndex returns the root application's equation index.
func (s *System) RootIndex() int { return s.sys.byKey[s.rootKey].index }

// Root extracts the root application's relation from a state slice.
func (s *System) Root(state []*relation.Relation) *relation.Relation {
	return state[s.RootIndex()]
}

// Size returns the number of equation instances.
func (s *System) Size() int { return len(s.sys.instances) }

// Resumable reports whether Resume may absorb base-relation growth
// differentially: the system is all-positive (solved semi-naively), every
// instance's use of the shared base is monotone, and no grounding-time
// evaluation (application prefixes, relation arguments) depends on the base —
// those are computed once and cannot be re-derived without regrounding.
func (s *System) Resumable() bool {
	return s.mode == SemiNaive && s.sys.nonResumable == ""
}

// Deps returns the sorted names of global relations the system's bodies (and
// the selector bodies they apply, transitively) may read — everything except
// the instances' own formals and synthesized markers. A caller caching the
// solved system must discard it when any of these change; the base relation
// itself is reported only if it is also read by name through the globals.
func (s *System) Deps() []string {
	out := make([]string, 0, len(s.sys.deps))
	for n := range s.sys.deps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DepValues returns the grounding-time value of each Deps entry (nil for
// names that were unbound), so a cache can verify the snapshot it captured is
// still the published state before installing a computed result.
func (s *System) DepValues() map[string]*relation.Relation {
	root := s.sys.byKey[s.rootKey]
	out := make(map[string]*relation.Relation, len(s.sys.deps))
	for n := range s.sys.deps {
		out[n] = root.env.Rels[n]
	}
	return out
}

// fixpointOpts builds iteration options from an engine's configuration.
func fixpointOpts(en *Engine, ctx context.Context, allowNonMono bool) fixpoint.Options {
	maxRounds := en.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	return fixpoint.Options{MaxRounds: maxRounds, AllowNonMonotonic: allowNonMono, Ctx: ctx, Parallelism: en.Parallelism}
}

// bind points the system at the current call: its context and engine, which
// every instance environment also resolves applications in selector bodies
// through. Grounding bound them to the grounding call's, which may be long
// cancelled when a cached system is reused.
func (s *System) bind(ctx context.Context, en *Engine) {
	s.en, s.sys.ctx, s.sys.engine = en, ctx, en
	for _, inst := range s.sys.instances {
		inst.env.Ctx, inst.env.Constructors = ctx, en
	}
}

// Solve computes the system's least fixpoint and records the engine's
// per-apply stats, returning the full state for callers that want to cache
// every equation's relation (Root extracts the answer).
func (s *System) Solve(ctx context.Context) ([]*relation.Relation, fixpoint.Stats, error) {
	return s.solve(ctx, s.en)
}

// solve is Solve on en: its iteration budget and stats sink.
func (s *System) solve(ctx context.Context, en *Engine) ([]*relation.Relation, fixpoint.Stats, error) {
	s.bind(ctx, en)
	opts := fixpointOpts(en, ctx, s.allowNonMono)
	var state []*relation.Relation
	var fstats fixpoint.Stats
	var err error
	if s.mode == Naive {
		state, fstats, err = fixpoint.Naive(s.sys, opts)
	} else {
		state, fstats, err = fixpoint.SemiNaive(s.sys, opts)
	}
	if err != nil {
		return nil, fstats, fmt.Errorf("constructor %s: %w", s.name, err)
	}
	s.recordStats(en, state, fstats)
	return state, fstats, nil
}

// recordStats publishes one solve/resume outcome on en.
func (s *System) recordStats(en *Engine, state []*relation.Relation, fstats fixpoint.Stats) {
	en.Applies.Add(1)
	en.SetLastStats(Stats{
		Mode:        s.mode,
		Instances:   len(s.sys.instances),
		Rounds:      fstats.Rounds,
		Evaluations: fstats.Evaluations,
		Tuples:      s.Root(state).Len(),
		MaxDelta:    fstats.MaxDeltaSize,
	})
}

// Detach unlinks the grounded system from its originating call: the call's
// context, engine and stat sinks would otherwise keep counting (and keep a
// cancelled context, and through the engine the call's environment with
// everything it computed) after the call is gone. A cache calls it once
// before retaining the system, which from then on is bound to no engine:
// Resume binds the maintaining call's.
func (s *System) Detach() {
	s.bind(context.Background(), nil)
	for _, inst := range s.sys.instances {
		inst.env.ExecStats = nil
	}
}

// Resume continues the solved system after its base relation changed: state
// is a converged state (from Solve or a previous Resume), newBase the base's
// new published value, and added and removed exactly the tuples newBase
// gained and lost (either may be nil).
//
// Growth alone takes one round that differentiates every instance bound to
// the old base with respect to added (branches whose base occurrences are
// all bare binding ranges evaluate once per occurrence with that occurrence
// restricted to the delta; branches using the base in nested-but-monotone
// positions re-evaluate in full, excluding known tuples), then standard
// semi-naive rounds propagate the derived deltas to the new least fixpoint.
//
// Removals are absorbed by delete-and-rederive, sound for the positive,
// monotone systems Resumable admits: (1) over-delete everything removed
// derives against the old base and state (fixpoint.OverDelete), (2) strip
// it and derive in one step from the survivors and the new base what the
// stripped state lacks (the over-deleted tuples that keep a derivation, and
// any the new base adds), (3) resume as for growth, seeded with added and
// those tuples. A system whose recursive or base-using branches cannot be
// differentiated by occurrence is solved from scratch instead. In these
// phases the executor scans a whole state and hashes the small side of its
// joins (eval.Env.Unindexed), so no index is built on, or memoized with, a
// state.
//
// Relations in state are never mutated (copy-on-write), so the caller may
// keep serving them. en supplies the iteration budget and receives the
// per-apply stats — it is the engine of the call triggering maintenance, not
// necessarily the one that grounded the system.
func (s *System) Resume(ctx context.Context, en *Engine, state []*relation.Relation, newBase, added, removed *relation.Relation) ([]*relation.Relation, fixpoint.Stats, error) {
	if !s.Resumable() {
		return nil, fixpoint.Stats{}, fmt.Errorf("constructor %s: system is not resumable: %s", s.name, s.sys.nonResumable)
	}
	s.bind(ctx, en)
	opts := fixpointOpts(en, ctx, false)
	n := len(s.sys.instances)
	rebound := make([]bool, n)
	for i, inst := range s.sys.instances {
		rebound[i] = inst.base == s.base
	}
	retract := removed != nil && !removed.IsEmpty()
	if retract && !s.sys.retractable(rebound) {
		s.rebase(rebound, newBase)
		return s.solve(ctx, en)
	}

	cur := make([]*relation.Relation, n)
	copy(cur, state)
	owned := make([]bool, n)
	deltas := make([]*relation.Relation, n)
	var stats fixpoint.Stats
	fail := func(err error) ([]*relation.Relation, fixpoint.Stats, error) {
		return nil, stats, fmt.Errorf("constructor %s: %w", s.name, err)
	}
	if retract {
		dead, dstats, err := s.overDelete(state, rebound, removed, opts)
		stats = dstats
		if err != nil {
			return fail(err)
		}
		for i, d := range dead {
			if d.IsEmpty() {
				continue
			}
			cur[i] = cur[i].Clone()
			d.Each(func(t value.Tuple) bool {
				cur[i].Delete(t)
				return true
			})
			owned[i] = true
		}
		s.rebase(rebound, newBase)
		stats.Rounds++ // the re-derivation round
		if deltas, err = s.sys.rederive(cur, dead); err != nil {
			return fail(err)
		}
		for i, r := range deltas {
			cur[i].UnionInto(r) // r is empty unless dead[i], hence cur[i], is owned
		}
	} else {
		s.rebase(rebound, newBase)
		for i, inst := range s.sys.instances {
			deltas[i] = relation.New(inst.cons.Result)
		}
	}

	stats.Rounds++ // the base-delta round
	for i, inst := range s.sys.instances {
		if !rebound[i] || added == nil || added.IsEmpty() {
			continue
		}
		out := relation.New(inst.cons.Result)
		if err := s.sys.evalBaseDelta(inst, cur, added, out, cur[i], retract); err != nil {
			return fail(err)
		}
		stats.Evaluations++
		if out.IsEmpty() {
			continue
		}
		if !owned[i] {
			cur[i] = cur[i].Clone()
			owned[i] = true
		}
		cur[i].UnionInto(out)
		if deltas[i].IsEmpty() {
			deltas[i] = out
		} else {
			deltas[i].UnionInto(out)
		}
	}
	final, lstats, err := fixpoint.SemiNaiveResume(s.sys, cur, deltas, owned, opts)
	stats.Rounds += lstats.Rounds
	stats.Evaluations += lstats.Evaluations
	stats.MaxDeltaSize = max(stats.MaxDeltaSize, lstats.MaxDeltaSize)
	stats.TuplesFinal = lstats.TuplesFinal
	if err != nil {
		return fail(err)
	}
	s.recordStats(en, final, stats)
	return final, stats, nil
}

// rebase binds the instances marked in rebound, and the root, to newBase.
func (s *System) rebase(rebound []bool, newBase *relation.Relation) {
	for i, inst := range s.sys.instances {
		if rebound[i] {
			inst.base = newBase
			inst.env.Rels[inst.cons.Decl.ForVar] = newBase
		}
	}
	s.base = newBase
}

// overDelete is phase 1 of a retraction: per instance bound to the old base,
// what removed derives against the old base and state seeds
// fixpoint.OverDelete, which propagates it through the recursion.
func (s *System) overDelete(state []*relation.Relation, rebound []bool, removed *relation.Relation, opts fixpoint.Options) ([]*relation.Relation, fixpoint.Stats, error) {
	seed := make([]*relation.Relation, len(s.sys.instances))
	for i, inst := range s.sys.instances {
		seed[i] = relation.New(inst.cons.Result)
		if !rebound[i] {
			continue
		}
		if err := s.sys.evalBaseDelta(inst, state, removed, seed[i], nil, true); err != nil {
			return nil, fixpoint.Stats{}, err
		}
	}
	dead, stats, err := fixpoint.OverDelete(s.sys, state, seed, opts)
	stats.Rounds++ // the seed round
	return dead, stats, err
}

// ---------------------------------------------------------------------------
// Grounding (section 3.2: "replacing all formal parameters by their actual
// values" and collecting the applications apply_1..apply_l)
// ---------------------------------------------------------------------------

// markerPrefix names occurrence markers; the parser can never produce an
// identifier starting with '$', so markers cannot collide with user names.
const markerPrefix = "$app#"

func isMarkerName(name string) bool { return strings.HasPrefix(name, markerPrefix) }

// basePrefix names base-occurrence aliases: every bare binding range over an
// instance's base formal is rewritten to a unique alias $base#<n>, so that
// Resume can differentiate the body with respect to a base delta one
// occurrence at a time — the same per-occurrence technique the $app# markers
// provide for recursive occurrences. Like markers, aliases cannot collide
// with user names.
const basePrefix = "$base#"

func isBaseAlias(name string) bool { return strings.HasPrefix(name, basePrefix) }

// instance is one grounded constructor application.
type instance struct {
	index int
	key   string
	cons  *Constructor
	// body is the instantiated body: formal names are bound in env, every
	// recursive constructor application range has been rewritten to a unique
	// occurrence marker $app#<n> whose referenced instance is in occKeys, and
	// every bare binding range over the base formal to a $base#<n> alias.
	body *ast.SetExpr
	env  *eval.Env
	// base is the relation the instance's base formal is bound to (rebound
	// by System.Resume when the root base grows).
	base *relation.Relation
	// occKeys maps occurrence marker names to instance keys.
	occKeys map[string]string
	// aliases lists the instance's base-occurrence alias names.
	aliases []string
	// branches classifies each body branch for semi-naive evaluation.
	branches []branchInfo
}

// branchInfo records, per branch, how the occurrence markers and the base
// formal appear: a marker or base occurrence as a bare top-level binding
// range is differentiable; a nested position (quantifier range, membership,
// suffixed application) forces full re-evaluation of the branch when that
// relation grows.
type branchInfo struct {
	recursive      bool
	differentiable bool
	bindingOccs    []string // marker names appearing as bare binding ranges
	// usesBase marks branches mentioning the base formal at all; baseDiff
	// marks those whose base occurrences are all bare binding ranges (the
	// baseOccs aliases), so a base delta can be joined in per occurrence.
	usesBase bool
	baseDiff bool
	baseOccs []string // alias names of bare base binding ranges
}

type system struct {
	engine    *Engine
	ctx       context.Context
	instances []*instance
	byKey     map[string]*instance
	fps       map[*relation.Relation]string // fingerprint cache
	// deps accumulates the global relation names any instance body (or a
	// selector body it applies) may read; depSels tracks chased selectors.
	deps    map[string]bool
	depSels map[string]bool
	// nonResumable, when non-empty, records why System.Resume cannot absorb
	// base deltas differentially (first reason wins).
	nonResumable string
}

// markNonResumable records the first reason differential resumption is
// unsupported; the system stays solvable, it just cannot be maintained.
func (s *system) markNonResumable(reason string) {
	if s.nonResumable == "" {
		s.nonResumable = reason
	}
}

func (s *system) fp(r *relation.Relation) string {
	if f, ok := s.fps[r]; ok {
		return f
	}
	f := fixpoint.Fingerprint(r)
	s.fps[r] = f
	return f
}

// appKey builds the canonical identity of an application from the
// constructor name, the base relation's content, and the argument values.
func (s *system) appKey(name string, base *relation.Relation, args []eval.Resolved) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(0)
	b.WriteString(s.fp(base))
	for _, a := range args {
		if a.IsScalar {
			b.WriteString("\x00s")
			b.WriteString(value.Tuple{a.Scalar}.Key())
		} else {
			b.WriteString("\x00r")
			b.WriteString(s.fp(a.Rel))
		}
	}
	return b.String()
}

// ground ensures an instance exists for the application and returns its key.
func (s *system) ground(name string, base *relation.Relation, args []eval.Resolved) (string, error) {
	cons, ok := s.engine.Registry.Lookup(name)
	if !ok {
		return "", fmt.Errorf("unknown constructor %q", name)
	}
	if len(args) != len(cons.Decl.Params) {
		return "", fmt.Errorf("constructor %q expects %d argument(s), got %d",
			name, len(cons.Decl.Params), len(args))
	}
	key := s.appKey(name, base, args)
	if _, exists := s.byKey[key]; exists {
		return key, nil
	}

	inst := &instance{
		index:   len(s.instances),
		key:     key,
		cons:    cons,
		body:    ast.CopySetExpr(cons.Decl.Body),
		env:     s.engine.GlobalEnv.Clone(),
		base:    base,
		occKeys: make(map[string]string),
	}
	inst.env.Ctx = s.ctx
	// Bind formals: the base-relation variable and the parameters. The
	// bindings shadow any same-named globals, which is exactly the paper's
	// static scoping of constructor definitions.
	inst.env.Rels[cons.Decl.ForVar] = base
	for i, p := range cons.Decl.Params {
		if args[i].IsScalar {
			inst.env.Scalars[p.Name] = args[i].Scalar
		} else {
			inst.env.Rels[p.Name] = args[i].Rel
		}
	}
	// Register before walking the body so recursive references resolve to
	// this very instance instead of recursing forever.
	s.byKey[key] = inst
	s.instances = append(s.instances, inst)

	// Collect global dependencies from the instantiated body before the
	// marker rewrite erases application prefixes (their ranges are evaluated
	// here at grounding time, so what they read is a dependency too).
	s.collectDeps(inst)

	// Rewrite every constructor application inside the body into an
	// occurrence marker, grounding the referenced instances.
	occCounter := 0
	var rewriteErr error
	ast.WalkRanges(inst.body, func(r *ast.Range) {
		if rewriteErr != nil {
			return
		}
		if err := s.rewriteRange(inst, r, &occCounter); err != nil {
			rewriteErr = err
		}
	})
	if rewriteErr != nil {
		return "", rewriteErr
	}

	s.classifyBranches(inst)
	return key, nil
}

// collectDeps records every global relation name the instance's body may
// read: range variables that are not this instance's formals or synthesized
// markers, plus — transitively — whatever the applied selectors' bodies read.
// A selector body evaluates against the instance environment, where the base
// formal shadows any same-named global; a selector mentioning that name would
// therefore read the base through a side door invisible to the per-occurrence
// differentiation, so it marks the system non-resumable.
func (s *system) collectDeps(inst *instance) {
	formals := map[string]bool{inst.cons.Decl.ForVar: true}
	for _, p := range inst.cons.Decl.Params {
		formals[p.Name] = true
	}
	var chase func(selName string)
	note := func(r *ast.Range, inSelector string) {
		if r.Var != "" && !isMarkerName(r.Var) && !isBaseAlias(r.Var) {
			switch {
			case r.Var == inst.cons.Decl.ForVar:
				if inSelector != "" {
					s.markNonResumable(fmt.Sprintf("selector %s reads the base relation through the shadowed name %q", inSelector, r.Var))
				}
			case !formals[r.Var]:
				s.deps[r.Var] = true
			}
		}
		for i := range r.Suffixes {
			if r.Suffixes[i].Kind == ast.SuffixSelector {
				chase(r.Suffixes[i].Name)
			}
		}
	}
	chase = func(selName string) {
		// Visited per instance: the shadowed-base check below depends on this
		// instance's base formal name.
		visitKey := inst.key + "\x00" + selName
		if s.depSels[visitKey] {
			return
		}
		s.depSels[visitKey] = true
		decl, ok := inst.env.Selectors[selName]
		if !ok {
			return
		}
		selFormals := map[string]bool{decl.ForVar: true, decl.BodyVar: true}
		for _, p := range decl.Params {
			selFormals[p.Name] = true
		}
		if decl.Where != nil {
			ast.WalkPredRanges(decl.Where, func(r *ast.Range) {
				if r.Var != "" && !selFormals[r.Var] {
					if r.Var == inst.cons.Decl.ForVar {
						s.markNonResumable(fmt.Sprintf("selector %s reads the base relation through the shadowed name %q", selName, r.Var))
					}
					s.deps[r.Var] = true
				}
				for i := range r.Suffixes {
					if r.Suffixes[i].Kind == ast.SuffixSelector {
						chase(r.Suffixes[i].Name)
					}
				}
			})
		}
	}
	ast.WalkRanges(inst.body, func(r *ast.Range) { note(r, "") })
}

// rewriteRange replaces the constructor suffixes of one range with an
// occurrence marker. The prefix (base plus any selector suffixes before the
// first constructor suffix) must evaluate to a concrete relation at grounding
// time; suffixes after the constructor application remain on the marker and
// are re-applied against the current approximation each round.
func (s *system) rewriteRange(inst *instance, r *ast.Range, occCounter *int) error {
	first := -1
	for i, suf := range r.Suffixes {
		if suf.Kind == ast.SuffixConstructor {
			first = i
			break
		}
	}
	if first < 0 {
		return nil
	}
	if containsMarker(r, first) {
		return fmt.Errorf(
			"constructor %s: application %s uses a recursive occurrence in its base or arguments; merging such subgraphs requires runtime compilation (section 4) and is not supported",
			inst.cons.Decl.Name, r.Suffixes[first].Name)
	}
	// Evaluate the prefix concretely. The bare-formal case bypasses the
	// evaluator so the child instance is grounded on the exact base pointer:
	// System.Resume rebinds by pointer identity, and only a pointer-identical
	// chain of instances can be rebound as one. A prefix or argument that
	// mentions the base formal any other way is evaluated here, once, from
	// the old base — it cannot be re-derived on Resume, so it makes the
	// system non-resumable (still solvable and cacheable).
	forVar := inst.cons.Decl.ForVar
	trivial := first == 0 && r.Sub == nil && r.Var == forVar
	if mentionsVar(r, first, forVar, trivial) {
		s.markNonResumable(fmt.Sprintf("constructor %s: application %s computes its base or arguments from the base formal %q at grounding time",
			inst.cons.Decl.Name, r.Suffixes[first].Name, forVar))
	}
	var base *relation.Relation
	if trivial {
		base = inst.base
	} else {
		prefix := &ast.Range{Var: r.Var, Sub: r.Sub, Suffixes: r.Suffixes[:first], Pos: r.Pos}
		var err error
		base, err = inst.env.Range(prefix)
		if err != nil {
			return err
		}
	}
	suf := r.Suffixes[first]
	args, err := inst.env.ResolveArgs(suf.Args)
	if err != nil {
		return err
	}
	childKey, err := s.ground(suf.Name, base, args)
	if err != nil {
		return err
	}
	marker := fmt.Sprintf("%s%d", markerPrefix, *occCounter)
	*occCounter++
	inst.occKeys[marker] = childKey

	rest := r.Suffixes[first+1:]
	for _, nxt := range rest {
		if nxt.Kind == ast.SuffixConstructor {
			return fmt.Errorf(
				"constructor %s: chained constructor application %s on a recursive occurrence is not supported",
				inst.cons.Decl.Name, nxt.Name)
		}
	}
	r.Var = marker
	r.Sub = nil
	r.Suffixes = rest
	return nil
}

// containsMarker reports whether the range's base, sub-expression, or the
// arguments of suffixes up to and including the first constructor suffix
// mention an occurrence marker (a recursive value), which cannot be evaluated
// at grounding time.
func containsMarker(r *ast.Range, firstCons int) bool {
	found := false
	check := func(rr *ast.Range) {
		if isMarkerName(rr.Var) {
			found = true
		}
	}
	if isMarkerName(r.Var) {
		found = true
	}
	if r.Sub != nil {
		ast.WalkRanges(r.Sub, check)
	}
	for i := 0; i <= firstCons && i < len(r.Suffixes); i++ {
		for _, a := range r.Suffixes[i].Args {
			if a.Rel != nil {
				ast.WalkRange(a.Rel, check)
			}
		}
	}
	return found
}

// mentionsVar reports whether the range's prefix (base and sub-expression,
// skipped when the prefix is exactly the bare variable) or the arguments of
// suffixes up to and including the first constructor suffix reference name.
func mentionsVar(r *ast.Range, firstCons int, name string, skipBare bool) bool {
	found := false
	check := func(rr *ast.Range) {
		if rr.Var == name {
			found = true
		}
	}
	if !skipBare && r.Var == name {
		found = true
	}
	if r.Sub != nil {
		ast.WalkRanges(r.Sub, check)
	}
	for i := 0; i <= firstCons && i < len(r.Suffixes); i++ {
		for _, a := range r.Suffixes[i].Args {
			if a.Rel != nil {
				ast.WalkRange(a.Rel, check)
			}
		}
	}
	return found
}

// classifyBranches precomputes, per branch, the occurrence markers and the
// base-formal occurrences, and whether semi-naive differentiation applies to
// each. Bare binding ranges over the base formal are rewritten to $base#<n>
// aliases here, so Resume can bind one occurrence at a time to a base delta.
// The polarity of every other base occurrence is the checker's judgement: a
// system with a non-positive instance is solved naively and never resumed
// (Ground). What remains is one shape test: a base occurrence under a suffix
// application, in a suffix argument or inside a nested set expression is
// computed from the base in a way no per-occurrence delta expresses, so it
// marks the whole system non-resumable.
func (s *system) classifyBranches(inst *instance) {
	forVar := inst.cons.Decl.ForVar
	inst.branches = make([]branchInfo, len(inst.body.Branches))
	aliasCounter := 0
	for i := range inst.body.Branches {
		br := &inst.body.Branches[i]
		info := &inst.branches[i]
		if br.Literal != nil {
			continue
		}
		bare := make([]string, 0, len(br.Binds))
		nested := false
		baseNested := false
		seen := func(r *ast.Range) {
			if isMarkerName(r.Var) {
				nested = true
			}
			if r.Var == forVar {
				baseNested = true
			}
			if baseOccurrenceUntracked(r, forVar) {
				s.markNonResumable(fmt.Sprintf("constructor %s: base formal %q occurs under a derived range",
					inst.cons.Decl.Name, forVar))
			}
		}
		for bi := range br.Binds {
			bd := &br.Binds[bi]
			if isMarkerName(bd.Range.Var) && bd.Range.Sub == nil && len(bd.Range.Suffixes) == 0 {
				bare = append(bare, bd.Range.Var)
				continue
			}
			if bd.Range.Var == forVar && bd.Range.Sub == nil && len(bd.Range.Suffixes) == 0 {
				alias := fmt.Sprintf("%s%d", basePrefix, aliasCounter)
				aliasCounter++
				bd.Range.Var = alias
				inst.aliases = append(inst.aliases, alias)
				info.baseOccs = append(info.baseOccs, alias)
				continue
			}
			ast.WalkRange(bd.Range, seen)
		}
		if br.Where != nil {
			ast.WalkPredRanges(br.Where, seen)
		}
		info.recursive = nested || len(bare) > 0
		info.differentiable = !nested && len(bare) > 0
		info.bindingOccs = bare
		info.usesBase = baseNested || len(info.baseOccs) > 0
		info.baseDiff = !baseNested && len(info.baseOccs) > 0
	}
}

// baseOccurrenceUntracked reports whether name occurs inside r in a position
// the resumability analysis does not track: as the prefix of a suffix
// application, in a suffix argument, or anywhere inside a nested set
// sub-expression.
func baseOccurrenceUntracked(r *ast.Range, name string) bool {
	if r.Var == name && len(r.Suffixes) > 0 {
		return true
	}
	found := false
	note := func(rr *ast.Range) {
		if rr.Var == name {
			found = true
		}
	}
	if r.Sub != nil {
		ast.WalkRanges(r.Sub, note)
	}
	for i := range r.Suffixes {
		for _, a := range r.Suffixes[i].Args {
			if a.Rel != nil && (a.Rel.Var == name || baseOccurrenceUntracked(a.Rel, name)) {
				found = true
			}
		}
	}
	return found
}

// ---------------------------------------------------------------------------
// fixpoint.Evaluator implementation
// ---------------------------------------------------------------------------

// N implements fixpoint.Evaluator.
func (s *system) N() int { return len(s.instances) }

// NewRelation implements fixpoint.Evaluator.
func (s *system) NewRelation(i int) *relation.Relation {
	return relation.New(s.instances[i].cons.Result)
}

// bindState binds every occurrence marker of inst to the referenced
// instance's relation from the given state and every base alias to the
// instance's base, applying overrides (deltas), and resets the env's range
// memo. With cold, the markers bound to state are eval.Env.Unindexed: a
// retraction reads a state for one pass and then replaces it, so an index on
// it would be built at full cost and stay alive with the view's entry.
func (s *system) bindState(inst *instance, state []*relation.Relation, overrides map[string]*relation.Relation, cold bool) {
	inst.env.Unindexed = nil
	for marker, key := range inst.occKeys {
		ref := s.byKey[key]
		rel := state[ref.index]
		if o, ok := overrides[marker]; ok {
			rel = o
		} else if cold {
			if inst.env.Unindexed == nil {
				inst.env.Unindexed = make(map[string]bool)
			}
			inst.env.Unindexed[marker] = true
		}
		inst.env.Rels[marker] = rel
	}
	for _, alias := range inst.aliases {
		rel := inst.base
		if o, ok := overrides[alias]; ok {
			rel = o
		}
		inst.env.Rels[alias] = rel
	}
	inst.env.ResetMemo()
}

// EvalFull implements fixpoint.Evaluator: g_i over the full state.
func (s *system) EvalFull(i int, cur []*relation.Relation) (*relation.Relation, error) {
	inst := s.instances[i]
	s.bindState(inst, cur, nil, false)
	return inst.env.SetExpr(inst.body, inst.cons.Result)
}

// EvalIncrement implements fixpoint.Evaluator. Non-recursive branches
// contribute nothing after round 0; differentiable branches are evaluated
// once per bare recursive occurrence with that occurrence restricted to the
// referenced instance's delta; non-differentiable recursive branches are
// re-evaluated in full. Every branch excludes cur[i], as the interface
// requires.
func (s *system) EvalIncrement(i int, cur, delta []*relation.Relation) (*relation.Relation, error) {
	inst := s.instances[i]
	out := relation.New(inst.cons.Result)
	for bi, info := range inst.branches {
		br := &inst.body.Branches[bi]
		switch {
		case !info.recursive:
		case info.differentiable:
			if err := s.evalOccs(inst, br, info.bindingOccs, cur, delta, out, cur[i], false); err != nil {
				return nil, err
			}
		default:
			if err := s.evalWith(inst, br, cur, nil, out, cur[i], false); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EvalDecrement implements fixpoint.Deleter for a system retractable allows:
// every recursive branch is evaluated once per bare recursive occurrence with
// that occurrence bound to the referenced instance's newly over-deleted
// tuples and every other to the old state.
func (s *system) EvalDecrement(i int, state, gone, dead []*relation.Relation) (*relation.Relation, error) {
	inst := s.instances[i]
	out := relation.New(inst.cons.Result)
	for bi, info := range inst.branches {
		if err := s.evalOccs(inst, &inst.body.Branches[bi], info.bindingOccs, state, gone, out, dead[i], true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalOccs evaluates br once per marker occurrence in occs whose referenced
// delta is non-empty, with that occurrence bound to the delta.
func (s *system) evalOccs(inst *instance, br *ast.Branch, occs []string, cur, delta []*relation.Relation, out, except *relation.Relation, cold bool) error {
	for _, marker := range occs {
		d := delta[s.byKey[inst.occKeys[marker]].index]
		if d.IsEmpty() {
			continue
		}
		if err := s.evalWith(inst, br, cur, map[string]*relation.Relation{marker: d}, out, except, cold); err != nil {
			return err
		}
	}
	return nil
}

// evalWith evaluates br into out, minus except, with every occurrence bound
// as bindState binds it.
func (s *system) evalWith(inst *instance, br *ast.Branch, state []*relation.Relation, over map[string]*relation.Relation, out, except *relation.Relation, cold bool) error {
	s.bindState(inst, state, over, cold)
	return inst.env.EvalBranchIntoExcluding(br, out, except)
}

// evalBaseDelta evaluates what a base delta derives for inst into out, minus
// except, with the recursive occurrences at state: the first round of a
// Resume (for growth, the instance is already rebound to the new base) and
// the seed of its over-delete phase (for removals, it still reads the old
// one). Branches whose base occurrences are all bare aliases evaluate once
// per alias with that alias restricted to the delta (other aliases see the
// whole base, so cross terms are covered); branches using the base in a
// nested-but-monotone position re-evaluate in full. Branches not mentioning
// the base cannot derive anything new and are skipped.
func (s *system) evalBaseDelta(inst *instance, state []*relation.Relation, delta, out, except *relation.Relation, cold bool) error {
	for bi, info := range inst.branches {
		br := &inst.body.Branches[bi]
		switch {
		case !info.usesBase:
		case info.baseDiff:
			for _, alias := range info.baseOccs {
				if err := s.evalWith(inst, br, state, map[string]*relation.Relation{alias: delta}, out, except, cold); err != nil {
					return err
				}
			}
		default:
			if err := s.evalWith(inst, br, state, nil, out, except, cold); err != nil {
				return err
			}
		}
	}
	return nil
}

// retractable reports whether delete-and-rederive can absorb removals from
// the base: every recursive branch reads its recursive occurrences only as
// bare binding ranges, and every branch of an instance bound to the base
// reads the base only that way — the occurrences the over-delete phase
// differentiates one at a time.
func (s *system) retractable(rebound []bool) bool {
	for i, inst := range s.instances {
		for _, info := range inst.branches {
			if info.recursive && !info.differentiable || rebound[i] && info.usesBase && !info.baseDiff {
				return false
			}
		}
	}
	return true
}

// rederive is phase 2 of a retraction: per instance with over-deleted tuples,
// what one step derives from the survivors — state, already stripped of dead,
// and the instances' current bases — that state lacks. Such a tuple is an
// over-deleted one that keeps a derivation, or one new with the base delta;
// both belong to the new least fixpoint. Each branch runs with one binding
// restricted to what can derive a dead tuple (see restricted), so the work
// follows the over-deleted tuples and their join partners, not the state.
func (s *system) rederive(state, dead []*relation.Relation) ([]*relation.Relation, error) {
	out := make([]*relation.Relation, len(s.instances))
	for i, inst := range s.instances {
		out[i] = relation.New(inst.cons.Result)
		if dead[i].IsEmpty() {
			continue
		}
		for bi := range inst.body.Branches {
			br := &inst.body.Branches[bi]
			if err := s.evalWith(inst, br, state, s.restricted(inst, br, state, dead[i]), out[i], state[i], true); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// restricted binds the smallest bare binding br's target projects into a
// result column to its tuples whose projected attribute takes one of that
// column's values over dead — the only ones that can derive a dead tuple; the
// executor joins the rest of the branch to them, scanning a state and hashing
// the restricted side. A missing target projects the first binding whole, its
// first attribute into the first column. It returns nil, and the branch runs
// whole, when br projects no bare binding.
func (s *system) restricted(inst *instance, br *ast.Branch, state []*relation.Relation, dead *relation.Relation) map[string]*relation.Relation {
	var best *relation.Relation
	var name string
	var pos, col int
	try := func(bd *ast.Binding, attr string, c int) {
		var rel *relation.Relation
		switch r := bd.Range; {
		case r.Sub != nil || len(r.Suffixes) > 0:
			return
		case isMarkerName(r.Var):
			rel = state[s.byKey[inst.occKeys[r.Var]].index]
		case isBaseAlias(r.Var):
			rel = inst.base
		default:
			return
		}
		p := 0
		if attr != "" {
			p = rangeElem(bd.Range, rel).IndexOf(attr)
		}
		if p >= 0 && (best == nil || rel.Len() < best.Len()) {
			best, name, pos, col = rel, bd.Range.Var, p, c
		}
	}
	switch {
	case br.Literal != nil:
	case br.Target == nil:
		try(&br.Binds[0], "", 0)
	default:
		for c, tm := range br.Target {
			if f, ok := tm.(ast.Field); ok {
				for bi := range br.Binds {
					if br.Binds[bi].Var == f.Var {
						try(&br.Binds[bi], f.Attr, c)
					}
				}
			}
		}
	}
	if best == nil {
		return nil
	}
	vals := make(map[value.Value]bool)
	dead.Each(func(t value.Tuple) bool {
		vals[t[col]] = true
		return true
	})
	return map[string]*relation.Relation{name: best.Select(func(t value.Tuple) bool { return vals[t[pos]] })}
}

// rangeElem is the record type a tuple variable over r reads rel through: the
// one the checker typed r with, else rel's own.
func rangeElem(r *ast.Range, rel *relation.Relation) schema.RecordType {
	if r.Elem != nil {
		return *r.Elem
	}
	return rel.Type().Element
}
