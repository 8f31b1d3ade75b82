package dbpl

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/optimizer"
)

// Plan is the compiled, inspectable form of one prepared query: the pass
// pipeline's trace, the rewritten expression that actually executes, the
// quantifier ordering the evaluator will follow, and the access path chosen
// for every selector application. Explain returns a Plan without executing;
// ExplainQuery additionally fills Analyze with the counters of one execution
// (EXPLAIN ANALYZE style). Text renders the plan for humans; the struct
// marshals directly to JSON for machines.
type Plan struct {
	// Source is the query text as prepared.
	Source string `json:"source"`
	// Kind is "set" for a bare set expression ({...} with no selector or
	// constructor applied to it) and "range" for everything else.
	Kind string `json:"kind"`
	// Params lists scalar parameter names in binding order.
	Params []string `json:"params,omitempty"`
	// Optimized reports whether the pass pipeline ran (false under
	// WithoutOptimization).
	Optimized bool `json:"optimized"`
	// Passes traces each optimizer pass in pipeline order.
	Passes []PassTrace `json:"passes,omitempty"`
	// Final is the rewritten form that executes (equal to Source when no
	// pass applied).
	Final string `json:"final"`
	// Quantifiers lists the evaluation order: the base (or, per branch of a
	// set-expression head, the EACH bindings with their equi-join probe
	// annotations) followed by the suffix chain. Binding order and probes are
	// decided per execution from range cardinalities: Explain shows the
	// declared-order plan, ExplainQuery the plan its execution ran.
	Quantifiers []string `json:"quantifiers,omitempty"`
	// AccessPaths records the access path of every selector application in
	// the form that executes: Explain shows the cold default decided from the
	// text, ExplainQuery the path each application's execution took.
	AccessPaths []AccessPath `json:"access_paths,omitempty"`
	// Magic describes the restriction of a recursive constructor application
	// to the query's bound values, when one applies.
	Magic *MagicInfo `json:"magic,omitempty"`
	// Analyze holds the counters of one execution; only ExplainQuery sets it.
	Analyze *ExecInfo `json:"analyze,omitempty"`
}

// PassTrace records one optimizer pass's outcome.
type PassTrace struct {
	// Pass is the pass name.
	Pass string `json:"pass"`
	// Applied reports whether the pass changed the query.
	Applied bool `json:"applied"`
	// Detail is a human-readable account of what the pass did (or why not).
	Detail string `json:"detail,omitempty"`
}

// AccessPath records the access path chosen for one selector application.
type AccessPath struct {
	// Selector is the applied selector's name.
	Selector string `json:"selector"`
	// Base is the expression the selector filters.
	Base string `json:"base"`
	// Attr is the partition attribute, for hash-partition paths.
	Attr string `json:"attr,omitempty"`
	// Kind is "hash-partition" (an equality on the selector's argument served
	// from the base's hash index on that attribute) or "scan". The cold
	// default is hash-partition only for a selector applied directly to a
	// relation variable; an execution also probes a derived base whose value
	// already carries the index, such as a materialized constructor result.
	Kind string `json:"kind"`
}

// MagicInfo describes a restriction of a recursive constructor application
// (section 4's constraint propagation into recursive constructors, as magic
// sets over its declaration).
type MagicInfo struct {
	// Constructor is the recursive constructor whose full fixpoint is
	// replaced by the restricted system.
	Constructor string `json:"constructor"`
	// BoundAttr and Const give the bindings the restriction propagates: the
	// bound result attributes and the constant or parameter (by name) each is
	// bound to, comma-separated.
	BoundAttr string `json:"bound_attr"`
	Const     string `json:"const"`
	// Adorned lists the adorned constructors of the generated system.
	Adorned []string `json:"adorned,omitempty"`
}

// ExecInfo reports the work done by one execution of the plan.
type ExecInfo struct {
	// Rows is the result cardinality.
	Rows int `json:"rows"`
	// Mode, Instances, Rounds, Evaluations, and MaxDelta describe the
	// constructor fixpoint, when one ran (Mode empty otherwise).
	Mode        string `json:"mode,omitempty"`
	Instances   int    `json:"instances,omitempty"`
	Rounds      int    `json:"rounds,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
	MaxDelta    int    `json:"max_delta,omitempty"`
	// MatView reports the materialized-view outcome of the execution's
	// constructor application — "hit" (served converged state unchanged),
	// "maintained" (cached state brought current by resuming the fixpoint
	// with the committed base tuples added, MatViewDelta, and removed,
	// MatViewRemoved, over MatViewRounds rounds), or "miss" (computed from
	// scratch and installed); empty when no cacheable application ran.
	MatView        string `json:"matview,omitempty"`
	MatViewDelta   int    `json:"matview_delta,omitempty"`
	MatViewRemoved int    `json:"matview_removed,omitempty"`
	MatViewRounds  int    `json:"matview_rounds,omitempty"`
	// PartitionLookups and Scans count the selector applications the
	// execution ran — each application site once, by the plan it first ran —
	// answered from a hash index on the base vs. by scanning it.
	PartitionLookups int `json:"partition_lookups"`
	Scans            int `json:"scans"`
	// Parallelism is how many equations of a fixpoint round the session
	// evaluates at once (WithParallelism).
	Parallelism int `json:"parallelism,omitempty"`
	// Operators lists per-operator executor counters in first-run order,
	// aggregated across every pipeline the execution ran (fixpoint rounds
	// re-run the constructor body's pipelines).
	Operators []OperatorStat `json:"operators,omitempty"`
}

// OperatorStat is one streaming operator's aggregated counters from an
// execution: rows in/out and non-empty batches handed downstream.
type OperatorStat struct {
	// Op labels the operator and its binding variable, e.g. "hash-join(b)",
	// "scan(f)", "dedup"; the operators of a selector application carry the
	// selector's name instead, e.g. "scan[hidden_by]", "filter[hidden_by]".
	Op      string `json:"op"`
	RowsIn  int64  `json:"rows_in"`
	RowsOut int64  `json:"rows_out"`
	Batches int64  `json:"batches,omitempty"`
	// Workers is always 1: a pipeline runs on one goroutine.
	//
	// Deprecated: pipelines are no longer partitioned across workers.
	Workers int `json:"workers"`
}

// JSON renders the plan as indented JSON.
func (p *Plan) JSON() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Text renders the plan as aligned text, one aspect per line.
func (p *Plan) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:   %s  (%s)\n", p.Source, p.Kind)
	if len(p.Params) > 0 {
		fmt.Fprintf(&b, "params:  %s\n", strings.Join(p.Params, ", "))
	}
	if !p.Optimized {
		b.WriteString("passes:  (optimization disabled)\n")
	}
	for _, t := range p.Passes {
		mark := "-"
		if t.Applied {
			mark = "+"
		}
		fmt.Fprintf(&b, "pass:    %-9s %s %s\n", t.Pass, mark, t.Detail)
	}
	if p.Final != p.Source {
		fmt.Fprintf(&b, "plan:    %s\n", p.Final)
	}
	for _, q := range p.Quantifiers {
		fmt.Fprintf(&b, "quant:   %s\n", q)
	}
	for _, a := range p.AccessPaths {
		if a.Kind == "hash-partition" {
			fmt.Fprintf(&b, "path:    [%s] over %s: hash-partition(%s)\n", a.Selector, a.Base, a.Attr)
		} else {
			fmt.Fprintf(&b, "path:    [%s] over %s: scan\n", a.Selector, a.Base)
		}
	}
	if p.Magic != nil {
		fmt.Fprintf(&b, "magic:   %s bound %s=%s via %d adorned constructor(s)\n",
			p.Magic.Constructor, p.Magic.BoundAttr, p.Magic.Const, len(p.Magic.Adorned))
	}
	if p.Analyze != nil {
		a := p.Analyze
		fmt.Fprintf(&b, "analyze: rows=%d", a.Rows)
		if a.Mode != "" {
			fmt.Fprintf(&b, " mode=%s instances=%d rounds=%d evaluations=%d",
				a.Mode, a.Instances, a.Rounds, a.Evaluations)
			// Only the semi-naive loop tracks per-round delta cardinality;
			// claiming max-delta=0 for a naive fixpoint would misreport work
			// that was simply never measured.
			if a.Mode == "naive" {
				b.WriteString(" max-delta=n/a")
			} else {
				fmt.Fprintf(&b, " max-delta=%d", a.MaxDelta)
			}
		}
		fmt.Fprintf(&b, " partition-lookups=%d scans=%d", a.PartitionLookups, a.Scans)
		if a.Parallelism > 0 {
			fmt.Fprintf(&b, " parallelism=%d", a.Parallelism)
		}
		b.WriteString("\n")
		switch a.MatView {
		case "":
		case "maintained":
			fmt.Fprintf(&b, "matview: maintained delta=+%d/-%d rounds=%d\n", a.MatViewDelta, a.MatViewRemoved, a.MatViewRounds)
		default:
			fmt.Fprintf(&b, "matview: %s\n", a.MatView)
		}
		for _, op := range a.Operators {
			fmt.Fprintf(&b, "op:      %-16s rows-in=%d rows-out=%d batches=%d\n",
				op.Op, op.RowsIn, op.RowsOut, op.Batches)
		}
	}
	return b.String()
}

// clone returns an independent copy (the cached Stmt's plan is shared; every
// public accessor hands out a copy).
func (p *Plan) clone() *Plan {
	c := *p
	c.Params = append([]string(nil), p.Params...)
	c.Passes = append([]PassTrace(nil), p.Passes...)
	c.Quantifiers = append([]string(nil), p.Quantifiers...)
	c.AccessPaths = append([]AccessPath(nil), p.AccessPaths...)
	if p.Magic != nil {
		m := *p.Magic
		m.Adorned = append([]string(nil), p.Magic.Adorned...)
		c.Magic = &m
	}
	if p.Analyze != nil {
		a := *p.Analyze
		a.Operators = append([]OperatorStat(nil), p.Analyze.Operators...)
		c.Analyze = &a
	}
	return &c
}

// ---------------------------------------------------------------------------
// Plan construction (Prepare time)
// ---------------------------------------------------------------------------

// buildPlan derives the public plan from the statement's compiled state.
func (s *Stmt) buildPlan(traces []optimizer.Trace, decls *declSnapshot) *Plan {
	p := &Plan{
		Source:      s.src,
		Kind:        "range",
		Params:      s.Params(),
		Optimized:   !s.db.noOptimize,
		Final:       s.execRng.String(),
		Quantifiers: quantifiers(s.execRng, nil),
	}
	if s.rng.Sub != nil && len(s.rng.Suffixes) == 0 {
		p.Kind = "set"
	}
	for _, t := range traces {
		p.Passes = append(p.Passes, PassTrace{Pass: t.Pass, Applied: t.Applied, Detail: t.Detail})
	}

	p.AccessPaths = accessPaths(s.execRng, decls.selectors, p.Optimized, nil)
	if m := s.magic; m != nil {
		p.Magic = &MagicInfo{
			Constructor: m.Constructor,
			BoundAttr:   strings.Join(m.BoundAttrs, ","),
			Const:       strings.Join(m.Bindings, ","),
			Adorned:     append([]string(nil), m.Adorned...),
		}
	}
	return p
}

// accessPaths lists the access path of every selector application in rng, a
// form the statement executes: the one the execution behind ran took (its
// recorded plan), or, when ran is nil or never applied it, the cold default
// eval.SelectorAccess decides from the text — scan throughout when the
// session does not optimize.
func accessPaths(rng *ast.Range, selectors map[string]*ast.SelectorDecl, optimized bool, ran *eval.ExecStats) []AccessPath {
	var out []AccessPath
	ast.WalkRange(rng, func(r *ast.Range) {
		for i := range r.Suffixes {
			suf := &r.Suffixes[i]
			if suf.Kind != ast.SuffixSelector {
				continue
			}
			prefix := &ast.Range{Var: r.Var, Sub: r.Sub, Suffixes: r.Suffixes[:i]}
			entry := AccessPath{Selector: suf.Name, Base: prefix.String(), Kind: "scan"}
			attr, indexed, applied := ran.SelectorPath(suf)
			if decl, ok := selectors[suf.Name]; !applied && ok && optimized {
				attr, indexed = eval.SelectorAccess(decl, r, i)
			}
			if indexed {
				entry.Attr, entry.Kind = attr, "hash-partition"
			}
			out = append(out, entry)
		}
	})
	return out
}

// quantifiers renders the evaluation order of rng, a form the statement
// executes: the query head, then the suffix chain. A set-expression head
// lists every branch's bindings as eval.BranchPlan describes them — the plan
// the execution behind ran used for the branch, or, when ran is nil or never
// reached it, the declared-order plan made without cardinalities.
func quantifiers(rng *ast.Range, ran *eval.ExecStats) []string {
	var out []string
	if rng.Sub == nil {
		out = append(out, "base "+rng.Var)
	} else {
		for bi := range rng.Sub.Branches {
			br := &rng.Sub.Branches[bi]
			if br.Literal != nil {
				out = append(out, fmt.Sprintf("branch %d: literal %s", bi, br.String()))
				continue
			}
			plan := ran.PlanOf(br)
			if plan == nil {
				var err error
				if plan, err = eval.PlanBranch(br, nil); err != nil {
					out = append(out, fmt.Sprintf("branch %d: %v", bi, err))
					continue
				}
			}
			for _, line := range plan.Describe() {
				out = append(out, fmt.Sprintf("branch %d: %s", bi, line))
			}
		}
	}
	for _, suf := range rng.Suffixes {
		out = append(out, "apply "+suf.String())
	}
	return out
}
