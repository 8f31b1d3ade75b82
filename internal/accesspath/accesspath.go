// Package accesspath implements the access-path machinery of section 4 of
// the paper for parameterized selectors:
//
//	"A logical access path is a compiled procedure with dummy constants
//	 [HeNa 84]. A physical access path actually materializes a relation
//	 corresponding to the query with the constants used as variables, and
//	 partitions it according to the different constant values."
//
// A Physical path partitions the base relation by the parameterized
// attribute so that each instantiation is a hash lookup; the logical path is
// the selector's application itself (eval.Env.Select). The
// partitioning is the relation's own memoized hash index (relation.IndexOn),
// so the maintenance concern the paper attributes to [ShTZ 84] is handled
// where the relation changes: a clone shares the chunk carrying the index and
// extends it by the tuples added since, and a deletion from a shared chunk
// leaves a copy that carries none.
//
// Query evaluation does not go through this package: a selector application
// is planned and run as a branch by package eval, which decides index or scan
// on the base's value and probes the same relation.IndexOn index. What
// remains here is a typed single-attribute view of that index, kept for the
// benchmark's probes.
package accesspath

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// Physical is the paper's physical access path: the base relation
// partitioned by the values of one attribute. It is a typed single-attribute
// view over the relation's hash index on that attribute, so it shares the
// index's lifetime rules: memoized on the relation value's sealed chunk,
// extended by the tuples clones add since, rebuilt after a deletion.
type Physical struct {
	idx *relation.Index
}

// Bucket is one partition of a physical access path: the tuples whose
// partition attribute equals one constant. It must not be modified.
type Bucket []value.Tuple

// Each calls fn for every tuple of the partition until fn returns false.
func (b Bucket) Each(fn func(value.Tuple) bool) {
	for _, t := range b {
		if !fn(t) {
			return
		}
	}
}

// BuildPhysical partitions base by the named attribute.
func BuildPhysical(base *relation.Relation, attr string) (*Physical, error) {
	pos := base.Type().Element.IndexOf(attr)
	if pos < 0 {
		return nil, fmt.Errorf("accesspath: relation %s has no attribute %q", base.Type().Name, attr)
	}
	return BuildPhysicalAt(base, pos)
}

// BuildPhysicalAt partitions base by the attribute at the given position.
// Positional addressing matters when the selector's For-type re-labels the
// base relation's attributes (the paper's positional typing, section 3.1):
// the partition position comes from the re-labelled element type, not the
// base's own attribute names.
func BuildPhysicalAt(base *relation.Relation, pos int) (*Physical, error) {
	if pos < 0 || pos >= base.Type().Element.Arity() {
		return nil, fmt.Errorf("accesspath: relation %s has no attribute position %d", base.Type().Name, pos)
	}
	return &Physical{idx: base.IndexOn([]int{pos})}, nil
}

// Lookup returns the partition for one constant (empty when none matches).
func (p *Physical) Lookup(v value.Value) Bucket {
	return p.idx.Probe(value.Tuple{v})
}

// Partitions returns the number of distinct constants materialized.
func (p *Physical) Partitions() int { return p.idx.Len() }
