package accesspath

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/workload"
)

var binT = workload.BinaryStringRelType("infrontrel", "front", "back")

func sample() *relation.Relation {
	r := relation.New(binT)
	r.Add(value.NewTuple(value.Str("table"), value.Str("chair")))
	r.Add(value.NewTuple(value.Str("table"), value.Str("door")))
	r.Add(value.NewTuple(value.Str("vase"), value.Str("table")))
	return r
}

// agreesWithFilter checks the physical path on "front" against a filtering
// scan of the same base for every constant.
func agreesWithFilter(t *testing.T, base *relation.Relation, pp *Physical, consts ...string) {
	t.Helper()
	for _, c := range consts {
		want := relation.New(binT)
		base.Each(func(tup value.Tuple) bool {
			if tup[0] == value.Str(c) {
				want.Add(tup)
			}
			return true
		})
		got := relation.New(binT)
		pp.Lookup(value.Str(c)).Each(func(tup value.Tuple) bool { return got.Add(tup) })
		if !got.Equal(want) || len(pp.Lookup(value.Str(c))) != want.Len() {
			t.Errorf("physical path and filter disagree on %q: %v vs %s", c, pp.Lookup(value.Str(c)), want)
		}
	}
}

func TestPhysicalPathLookupAndMaintenance(t *testing.T) {
	base := sample()
	pp, err := BuildPhysical(base, "front")
	if err != nil {
		t.Fatal(err)
	}
	if pp.Partitions() != 2 {
		t.Errorf("partitions: %d", pp.Partitions())
	}
	if got := pp.Lookup(value.Str("table")); len(got) != 2 {
		t.Errorf("Lookup(table): %v", got)
	}
	if got := pp.Lookup(value.Str("ghost")); len(got) != 0 {
		t.Errorf("Lookup(ghost): %v", got)
	}
	agreesWithFilter(t, base, pp, "table", "vase", "ghost")

	// Maintenance under insert/delete ([ShTZ 84] concern) happens where the
	// relation changes. Growth: the next value is a clone of the base plus
	// the new tuple, and its path (inherited from the base's, plus the
	// addition) sees it while the base's own path is untouched.
	wall := value.NewTuple(value.Str("ghost"), value.Str("wall"))
	grown := base.Clone()
	grown.Add(wall)
	gp, err := BuildPhysical(grown, "front")
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Lookup(value.Str("ghost"))) != 1 || gp.Partitions() != 3 {
		t.Error("insert maintenance failed")
	}
	agreesWithFilter(t, grown, gp, "table", "vase", "ghost")
	if len(pp.Lookup(value.Str("ghost"))) != 0 || pp.Partitions() != 2 {
		t.Error("growing a clone must not change the base's path")
	}

	// Deletion: the path built after the delete no longer holds the tuple,
	// and its now-empty partition is gone.
	shrunk := grown.Clone()
	if !shrunk.Delete(wall) {
		t.Fatal("delete must report presence")
	}
	sp, err := BuildPhysical(shrunk, "front")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Partitions() != 2 {
		t.Error("empty partitions must be pruned")
	}
	agreesWithFilter(t, shrunk, sp, "table", "vase", "ghost")

	// Mutating a relation in place after its path was built invalidates the
	// memoized index by version: the rebuilt path reflects the mutation.
	grown.Delete(wall)
	gp, err = BuildPhysical(grown, "front")
	if err != nil {
		t.Fatal(err)
	}
	agreesWithFilter(t, grown, gp, "table", "vase", "ghost")
}

func TestBuildPhysicalUnknownAttr(t *testing.T) {
	if _, err := BuildPhysical(sample(), "nope"); err == nil {
		t.Error("unknown attribute must fail")
	}
}
