package main

// Seeded input generators and the independent reference checker. Nothing here
// imports product code beyond the public tuple constructors: expected row
// counts and result fingerprints are computed from the generator's own
// integer model (bitset closure over the DAG, depth and subtree sizes of the
// tree, tallies of the stock), so a later change to the program cannot change
// the load or the answers it is checked against.

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"

	dbpl "repro"
)

// newRand returns the generator for one named input stream of a run, so that
// adding a draw to one stream never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func nodeName(i int) string { return fmt.Sprintf("n%06d", i) }

func strHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// foldHash extends a tuple hash by one attribute; it is order-sensitive, so
// <a,b> and <b,a> differ.
func foldHash(h, attr uint64) uint64 { return (h*31 + attr) * 0x9E3779B97F4A7C15 }

// pairHash hashes a binary tuple from its attributes' string hashes.
func pairHash(a, b uint64) uint64 { return foldHash(foldHash(0, a), b) }

// tupleHash hashes a tuple of string attributes.
func tupleHash(attrs ...string) uint64 {
	var h uint64
	for _, a := range attrs {
		h = foldHash(h, strHash(a))
	}
	return h
}

// fingerprint is an order-independent digest of a set of string tuples: the
// sum of the tuple hashes. The reference side adds tupleHash of its own
// strings; the program side folds the same function over result tuples.
type fingerprint struct {
	rows int
	sum  uint64
}

func (f *fingerprint) add(h uint64) { f.rows++; f.sum += h }

// relFingerprint digests a result relation of string attributes.
func relFingerprint(rel *dbpl.Relation) fingerprint {
	var f fingerprint
	rel.Each(func(t dbpl.Tuple) bool {
		var h uint64
		for _, v := range t {
			h = foldHash(h, strHash(v.AsString()))
		}
		f.add(h)
		return true
	})
	return f
}

func pair(a, b string) dbpl.Tuple { return dbpl.NewTuple(dbpl.Str(a), dbpl.Str(b)) }

// ---------------------------------------------------------------------------
// Layered random DAG (closure_scan)
// ---------------------------------------------------------------------------

// dag is a layered random DAG: every node outside the last layer has deg
// successor slots, each pointing at a random node of the next layer.
type dag struct {
	layers, width, deg int
	succ               [][]int32
	names              []string
	hashes             []uint64
}

func newDAG(rng *rand.Rand, layers, width, deg int) *dag {
	n := layers * width
	g := &dag{layers: layers, width: width, deg: deg,
		succ: make([][]int32, n), names: make([]string, n), hashes: make([]uint64, n)}
	for v := 0; v < n; v++ {
		g.names[v] = nodeName(v)
		g.hashes[v] = strHash(g.names[v])
		if v/width == layers-1 {
			continue
		}
		g.succ[v] = make([]int32, deg)
		for s := range g.succ[v] {
			g.succ[v][s] = g.draw(rng, v)
		}
	}
	return g
}

func (g *dag) draw(rng *rand.Rand, v int) int32 {
	return int32((v/g.width+1)*g.width + rng.Intn(g.width))
}

// sources is the number of nodes that have successors.
func (g *dag) sources() int { return (g.layers - 1) * g.width }

// redraw re-points k random successor slots.
func (g *dag) redraw(rng *rand.Rand, k int) {
	for ; k > 0; k-- {
		v := rng.Intn(g.sources())
		g.succ[v][rng.Intn(g.deg)] = g.draw(rng, v)
	}
}

// tuples lists the edge relation (duplicate slots collapse in the relation).
func (g *dag) tuples() []dbpl.Tuple {
	out := make([]dbpl.Tuple, 0, g.sources()*g.deg)
	for v, ss := range g.succ {
		for _, s := range ss {
			out = append(out, pair(g.names[v], g.names[s]))
		}
	}
	return out
}

// dagClosure is the reference transitive closure of one DAG state.
type dagClosure struct {
	words int
	reach []uint64 // node v's reachable set is reach[v*words:(v+1)*words]
	rows  int
}

// closure computes reachability bottom-up over the layers with bitsets.
func (g *dag) closure() *dagClosure {
	n := len(g.succ)
	c := &dagClosure{words: (n + 63) / 64}
	c.reach = make([]uint64, n*c.words)
	for v := n - 1; v >= 0; v-- {
		mine := c.reach[v*c.words : (v+1)*c.words]
		for _, s := range g.succ[v] {
			mine[s/64] |= 1 << (uint(s) % 64)
			for w, x := range c.reach[int(s)*c.words : (int(s)+1)*c.words] {
				mine[w] |= x
			}
		}
		for _, x := range mine {
			c.rows += bits.OnesCount64(x)
		}
	}
	return c
}

// reachable is the number of nodes reachable from v (the expected row count
// of the point query on v).
func (c *dagClosure) reachable(v int) int {
	n := 0
	for _, x := range c.reach[v*c.words : (v+1)*c.words] {
		n += bits.OnesCount64(x)
	}
	return n
}

// fingerprint digests the closure as <head, tail> name pairs.
func (c *dagClosure) fingerprint(g *dag) fingerprint {
	var f fingerprint
	for v := range g.succ {
		for w, x := range c.reach[v*c.words : (v+1)*c.words] {
			for ; x != 0; x &= x - 1 {
				u := w*64 + bits.TrailingZeros64(x)
				f.add(pairHash(g.hashes[v], g.hashes[u]))
			}
		}
	}
	return f
}

// ---------------------------------------------------------------------------
// Zipf-skewed CAD scene (closure_scan's join class)
// ---------------------------------------------------------------------------

// scene is a static CAD scene: parts of Zipf-distributed kinds, each part
// resting on an earlier one, and a material per kind.
type scene struct {
	part, ontop, material []dbpl.Tuple
	// joinMaterial is the constant the join query selects; joinRows is the
	// reference cardinality of the join for it.
	joinMaterial string
	joinRows     int
}

const sceneMaterials = 17

func kindName(k int) string     { return fmt.Sprintf("k%03d", k) }
func partName(i int) string     { return fmt.Sprintf("p%06d", i) }
func materialName(m int) string { return fmt.Sprintf("m%02d", m) }

func newScene(rng *rand.Rand, parts, kinds int) *scene {
	s := &scene{joinMaterial: materialName(3)}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(kinds-1))
	kindOf := make([]int, parts)
	for i := range kindOf {
		kindOf[i] = int(zipf.Uint64())
		s.part = append(s.part, pair(partName(i), kindName(kindOf[i])))
	}
	for k := 0; k < kinds; k++ {
		s.material = append(s.material, pair(kindName(k), materialName(k%sceneMaterials)))
	}
	// Each part rests on exactly one earlier part, so <top, base> pairs are
	// distinct and the join has one row per resting part of the material.
	for i := 1; i < parts; i++ {
		s.ontop = append(s.ontop, pair(partName(i), partName(rng.Intn(i))))
		if materialName(kindOf[i]%sceneMaterials) == s.joinMaterial {
			s.joinRows++
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Growing tree (live_maintain)
// ---------------------------------------------------------------------------

// tree is a rooted tree that only grows. The closure of its parent→child
// edges has one <ancestor, node> row per node and ancestor, so the reference
// row count, per-node subtree sizes and the closure fingerprint are all
// maintained in O(depth) per added edge.
type tree struct {
	parent   []int32
	depth    []int32
	below    []int32 // descendants of each node
	hashes   []uint64
	original int // nodes of the initial complete tree
	closure  fingerprint
}

// newTree builds the complete tree of the given branching factor and depth in
// level order (node 0 is the root) and returns it with its edge tuples.
func newTree(branching, depth int) (*tree, []dbpl.Tuple) {
	t := &tree{}
	t.push(-1)
	var edges []dbpl.Tuple
	level := []int{0}
	for d := 0; d < depth; d++ {
		var next []int
		for _, p := range level {
			for b := 0; b < branching; b++ {
				c := t.push(p)
				edges = append(edges, pair(nodeName(p), nodeName(c)))
				next = append(next, c)
			}
		}
		level = next
	}
	t.original = len(t.parent)
	return t, edges
}

// push adds a node under parent p (p < 0 for the root) and folds its
// ancestor pairs into the reference closure.
func (t *tree) push(p int) int {
	c := len(t.parent)
	t.parent = append(t.parent, int32(p))
	t.below = append(t.below, 0)
	t.hashes = append(t.hashes, strHash(nodeName(c)))
	if p < 0 {
		t.depth = append(t.depth, 0)
		return c
	}
	t.depth = append(t.depth, t.depth[p]+1)
	for a := p; a >= 0; a = int(t.parent[a]) {
		t.below[a]++
		t.closure.add(pairHash(t.hashes[a], t.hashes[c]))
	}
	return c
}

// grow adds n leaves under random nodes of the original tree and returns
// their edges.
func (t *tree) grow(rng *rand.Rand, n int) []dbpl.Tuple {
	out := make([]dbpl.Tuple, n)
	for i := range out {
		p := rng.Intn(t.original)
		out[i] = pair(nodeName(p), nodeName(t.push(p)))
	}
	return out
}

// ---------------------------------------------------------------------------
// Stock (served_oltp, paged_cold)
// ---------------------------------------------------------------------------

// stock is a reference model of one <item, loc> relation: per-location row
// counts and fingerprints, plus the digest of the whole relation.
type stock struct {
	rel   string
	locs  []string
	byLoc []fingerprint
	all   fingerprint
	next  int // next unused item number
}

func locName(l int) string { return fmt.Sprintf("loc-%04d", l) }

func newStock(rel string, locs int) *stock {
	s := &stock{rel: rel, locs: make([]string, locs), byLoc: make([]fingerprint, locs)}
	for l := range s.locs {
		s.locs[l] = locName(l)
	}
	return s
}

// draw generates n fresh tuples at uniformly random locations and records
// them in the model.
func (s *stock) draw(rng *rand.Rand, n int) []dbpl.Tuple {
	out := make([]dbpl.Tuple, n)
	for i := range out {
		l := rng.Intn(len(s.locs))
		item := fmt.Sprintf("%s-item-%07d", s.rel, s.next)
		s.next++
		h := tupleHash(item, s.locs[l])
		s.byLoc[l].add(h)
		s.all.add(h)
		out[i] = pair(item, s.locs[l])
	}
	return out
}

// userBytes is the payload size of a batch of string tuples: what the caller
// handed to the program, the base of every bytes-per-user-byte ratio.
func userBytes(tuples []dbpl.Tuple) int64 {
	var n int64
	for _, t := range tuples {
		for _, v := range t {
			n += int64(len(v.AsString()))
		}
	}
	return n
}
