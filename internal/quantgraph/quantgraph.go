// Package quantgraph implements the augmented quant graphs of section 4 of
// the paper (Fig 3). A quant graph represents a relational calculus query
// [JaKo 83]: a node per tuple variable with its range definition and directed
// arcs for join terms. The *augmented* graph adds special nodes for
// constructor heads, arcs for the attribute relationships between the result
// relation and the range definitions, and arcs from each quantified node with
// a constructed range relation to the corresponding constructor head —
// yielding the equivalent of a clause interconnectivity graph [Sick 76].
//
// The compiler uses the graph in two ways (both implemented here):
//
//   - Partitioning: disconnected components of the constructor dependency
//     graph are compiled independently (the "type-checking level").
//
//   - Cycle analysis: recursive cycles require least-fixpoint evaluation;
//     acyclic components can be decompiled into ordinary subqueries (the
//     "query compilation level").
package quantgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// NodeKind distinguishes node roles.
type NodeKind uint8

// Node kinds.
const (
	// HeadNode represents a constructor head (the augmentation of Fig 3).
	HeadNode NodeKind = iota
	// VarNode represents a tuple variable with its range definition.
	VarNode
)

// Node is one vertex of the augmented quant graph.
type Node struct {
	ID   int
	Kind NodeKind
	// Constructor holds the constructor name for HeadNodes and, for
	// VarNodes whose range is a constructor application, the applied name.
	Constructor string
	// Var and Range describe VarNodes: the tuple variable and the textual
	// range definition (EACH Var IN Range).
	Var   string
	Range string
	// Branch is the branch index (within a constructor body) the node
	// belongs to; -1 for head nodes.
	Branch int
}

// Label renders the node for display.
func (n *Node) Label() string {
	if n.Kind == HeadNode {
		return "CONSTRUCTOR " + n.Constructor
	}
	return fmt.Sprintf("EACH %s IN %s", n.Var, n.Range)
}

// ArcKind distinguishes arc roles.
type ArcKind uint8

// Arc kinds.
const (
	// JoinArc links two variable nodes sharing a join term.
	JoinArc ArcKind = iota
	// HeadArc links a constructor head to the range nodes that feed its
	// result attributes.
	HeadArc
	// CallArc links a variable node with a constructed range to the head
	// of the applied constructor (step 2 of the paper's algorithm).
	CallArc
)

// Arc is a directed edge with a descriptive label (e.g. the join term or the
// attribute correspondence).
type Arc struct {
	From, To int
	Kind     ArcKind
	Label    string
}

// Graph is an augmented quant graph.
type Graph struct {
	Nodes []*Node
	Arcs  []*Arc
	// heads maps constructor names to their head node ids.
	heads map[string]int
}

// New returns an empty graph.
func New() *Graph { return &Graph{heads: make(map[string]int)} }

func (g *Graph) addNode(n *Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

func (g *Graph) addArc(from, to int, kind ArcKind, label string) {
	g.Arcs = append(g.Arcs, &Arc{From: from, To: to, Kind: kind, Label: label})
}

// Build constructs the augmented quant graph for a set of constructor
// declarations (step 1 and 2 of the paper's algorithm). Declarations may
// reference each other; unknown constructor applications get dangling head
// nodes so partial programs can still be visualized.
func Build(decls []*ast.ConstructorDecl) *Graph {
	g := New()
	// Head nodes first.
	for _, d := range decls {
		g.heads[d.Name] = g.addNode(&Node{Kind: HeadNode, Constructor: d.Name, Branch: -1})
	}
	for _, d := range decls {
		g.addConstructorBody(d)
	}
	return g
}

func (g *Graph) headFor(name string) int {
	if id, ok := g.heads[name]; ok {
		return id
	}
	id := g.addNode(&Node{Kind: HeadNode, Constructor: name, Branch: -1})
	g.heads[name] = id
	return id
}

func (g *Graph) addConstructorBody(d *ast.ConstructorDecl) {
	head := g.heads[d.Name]
	for bi := range d.Body.Branches {
		br := &d.Body.Branches[bi]
		if br.Literal != nil {
			continue
		}
		varNode := make(map[string]int)
		for _, bd := range br.Binds {
			id := g.addNode(&Node{
				Kind: VarNode, Var: bd.Var, Range: bd.Range.String(), Branch: bi,
			})
			varNode[bd.Var] = id
			// CallArc for constructed ranges (step 2): from the quantified
			// node to the constructor head, checking the suffix chain.
			for _, suf := range bd.Range.Suffixes {
				if suf.Kind == ast.SuffixConstructor {
					g.Nodes[id].Constructor = suf.Name
					g.addArc(id, g.headFor(suf.Name), CallArc,
						fmt.Sprintf("%s ranges over %s", bd.Var, suf.Name))
				}
			}
		}
		// HeadArcs: attribute relationships between the result relation and
		// the range definitions (the "front/tail" arcs of Fig 3).
		if br.Target == nil {
			if id, ok := varNode[br.Binds[0].Var]; ok {
				g.addArc(head, id, HeadArc, "= "+br.Binds[0].Var)
			}
		} else {
			for _, t := range br.Target {
				if f, ok := t.(ast.Field); ok {
					if id, ok := varNode[f.Var]; ok {
						g.addArc(head, id, HeadArc, f.Var+"."+f.Attr)
					}
				}
			}
		}
		// JoinArcs from equality conjuncts over two variables.
		if br.Where != nil {
			for _, c := range ast.Conjuncts(br.Where) {
				cmp, ok := c.(ast.Cmp)
				if !ok {
					continue
				}
				lf, lok := cmp.L.(ast.Field)
				rf, rok := cmp.R.(ast.Field)
				if !lok || !rok || lf.Var == rf.Var {
					continue
				}
				from, fok := varNode[lf.Var]
				to, tok := varNode[rf.Var]
				if fok && tok {
					g.addArc(from, to, JoinArc, cmp.String())
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

// adjacency returns the successor lists.
func (g *Graph) adjacency() [][]int {
	adj := make([][]int, len(g.Nodes))
	for _, a := range g.Arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	return adj
}

// SCCs returns the strongly connected components (Tarjan), each as a sorted
// list of node ids, in reverse topological order.
func (g *Graph) SCCs() [][]int {
	n := len(g.Nodes)
	adj := g.adjacency()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	counter := 0

	var strong func(v int)
	strong = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			out = append(out, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
	return out
}

// Components returns the weakly connected components — the preliminary
// partitioning of constructor definitions the paper performs at the
// type-checking level.
func (g *Graph) Components() [][]int {
	n := len(g.Nodes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, a := range g.Arcs {
		ra, rb := find(a.From), find(a.To)
		if ra != rb {
			parent[rb] = ra
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for _, members := range groups {
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// RecursiveConstructors returns the names of constructors that participate
// in a cycle of the augmented graph — the components for which the compiler
// must generate a fixpoint algorithm (step 3).
func (g *Graph) RecursiveConstructors() []string {
	recursive := make(map[string]bool)
	for _, comp := range g.SCCs() {
		cyclic := len(comp) > 1
		if !cyclic {
			// A single node is cyclic if it has a self-arc.
			v := comp[0]
			for _, a := range g.Arcs {
				if a.From == v && a.To == v {
					cyclic = true
					break
				}
			}
		}
		if !cyclic {
			continue
		}
		for _, v := range comp {
			if g.Nodes[v].Kind == HeadNode {
				recursive[g.Nodes[v].Constructor] = true
			}
		}
	}
	out := make([]string, 0, len(recursive))
	for name := range recursive {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

// DOT renders the graph in Graphviz syntax.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph quantgraph {\n  rankdir=TB;\n")
	for _, n := range g.Nodes {
		shape := "box"
		if n.Kind == HeadNode {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.ID, n.Label(), shape)
	}
	for _, a := range g.Arcs {
		style := "solid"
		if a.Kind == CallArc {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q, style=%s];\n", a.From, a.To, a.Label, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// ASCII renders the graph as indented text, in the spirit of the paper's
// Fig 3.
func (g *Graph) ASCII() string {
	var b strings.Builder
	out := make(map[int][]*Arc)
	for _, a := range g.Arcs {
		out[a.From] = append(out[a.From], a)
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "[%d] %s\n", n.ID, n.Label())
		for _, a := range out[n.ID] {
			kind := map[ArcKind]string{JoinArc: "join", HeadArc: "attr", CallArc: "call"}[a.Kind]
			fmt.Fprintf(&b, "     --%s--> [%d] %s   (%s)\n", kind, a.To, g.Nodes[a.To].Label(), a.Label)
		}
	}
	recs := g.RecursiveConstructors()
	if len(recs) > 0 {
		fmt.Fprintf(&b, "recursive cycles: %s (least fixpoint required)\n", strings.Join(recs, ", "))
	} else {
		b.WriteString("acyclic: decompile to subqueries on base relations\n")
	}
	return b.String()
}
