package workload

import (
	"testing"

	"repro/internal/value"
)

func TestChainAndCycle(t *testing.T) {
	if got := len(Chain(5)); got != 5 {
		t.Errorf("Chain(5): %d edges", got)
	}
	if got := len(Cycle(5)); got != 5 {
		t.Errorf("Cycle(5): %d edges", got)
	}
	// A cycle returns to its start.
	c := Cycle(3)
	if c[2].To != 0 {
		t.Errorf("cycle must close: %+v", c)
	}
}

func TestTreeShape(t *testing.T) {
	edges := Tree(2, 3) // complete binary tree of depth 3
	if len(edges) != 14 {
		t.Errorf("Tree(2,3): %d edges, want 14", len(edges))
	}
	// Every node except the root has exactly one parent.
	indeg := map[int]int{}
	for _, e := range edges {
		indeg[e.To]++
	}
	for n, d := range indeg {
		if d != 1 {
			t.Errorf("node %d has indegree %d", n, d)
		}
	}
}

func TestRandomGeneratorsDeterministic(t *testing.T) {
	a := RandomGraph(10, 20, 42)
	b := RandomGraph(10, 20, 42)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("edge counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same graph")
		}
	}
	c := RandomGraph(10, 20, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
	d1 := RandomDAG(3, 4, 2, 7)
	d2 := RandomDAG(3, 4, 2, 7)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("RandomDAG must be deterministic")
		}
	}
	// DAG edges always go to the next layer.
	for _, e := range d1 {
		if e.To/4 != e.From/4+1 {
			t.Errorf("edge %v crosses more than one layer", e)
		}
	}
}

func TestEdgesToRelation(t *testing.T) {
	typ := BinaryStringRelType("t", "x", "y")
	rel := EdgesToRelation(typ, Chain(3))
	if rel.Len() != 3 {
		t.Errorf("relation: %d tuples", rel.Len())
	}
	if !rel.Contains(value.NewTuple(value.Str(NodeName(2)), value.Str(NodeName(3)))) {
		t.Errorf("chain edge 2 -> 3 missing: %s", rel)
	}
}

func TestCADSceneDeterministicAndTyped(t *testing.T) {
	s1 := NewCADScene(2, 5, 2, 9)
	s2 := NewCADScene(2, 5, 2, 9)
	if !s1.Infront.Equal(s2.Infront) || !s1.Ontop.Equal(s2.Ontop) {
		t.Error("scene must be deterministic")
	}
	if s1.Infront.Len() != 10 { // lanes * laneLen
		t.Errorf("Infront: %d", s1.Infront.Len())
	}
	if s1.Objects.Len() == 0 {
		t.Error("no objects generated")
	}
}

func TestParentTreeOrientation(t *testing.T) {
	// parent(child, parent): the root (node 0) appears only in column 2.
	tuples := ParentTree(2, 2)
	for _, tp := range tuples {
		if tp[0].AsString() == NodeName(0) {
			t.Errorf("root as child: %v", tp)
		}
	}
	if len(tuples) != 6 {
		t.Errorf("ParentTree(2,2): %d tuples, want 6", len(tuples))
	}
}

func TestBOMAcyclicWithSharing(t *testing.T) {
	b := NewBOM(4, 3, 5)
	if b.Contains.IsEmpty() {
		t.Fatal("empty BOM")
	}
	// Acyclicity: level numbers only increase along edges (asm_L_I names).
	b2 := NewBOM(4, 3, 5)
	if !b.Contains.Equal(b2.Contains) {
		t.Error("BOM must be deterministic")
	}
}
