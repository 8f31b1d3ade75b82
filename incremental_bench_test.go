package dbpl_test

// BenchmarkIncrementalRead measures recursive-read latency under a sustained
// write stream: each iteration commits a small growth batch and re-reads the
// transitive closure. The maintained variant resumes the cached semi-naive
// fixpoint from converged state with just the committed delta; the
// full-refixpoint variant (materialization off) recomputes the closure from
// scratch on every read. Tree workloads at 10k and 100k base tuples. CI runs
// it once as a smoke step (the maintained variant asserts that maintenance
// happened); the gating numbers come from bench/.

import (
	"fmt"
	"testing"

	dbpl "repro"

	"repro/internal/workload"
)

func BenchmarkIncrementalRead(b *testing.B) {
	shapes := []struct {
		name             string
		branching, depth int
	}{
		{"tree-10k", 10, 4},  // 11,110 edges
		{"tree-100k", 18, 4}, // 111,150 edges
	}
	modes := []struct {
		name string
		opts []dbpl.Option
	}{
		{"maintained", nil},
		{"full-refixpoint", []dbpl.Option{dbpl.WithoutMaterialization()}},
	}
	for _, shape := range shapes {
		edges := workload.Tree(shape.branching, shape.depth)
		// New edges hang off the deepest leaf: the committed delta derives
		// only the leaf's ancestor chain, the cheap-maintenance case the
		// cache is built for.
		leaf := workload.NodeName(len(edges))
		for _, mode := range modes {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				db := openWith(b, cadModule, mode.opts...)
				defer db.Close()
				assignEdges(b, db, edges)
				stmt, err := db.Prepare(`Infront{ahead}`)
				if err != nil {
					b.Fatal(err)
				}
				defer stmt.Close()
				// Warm: the maintained variant installs its entry here, so
				// the timed loop measures maintenance, not the first miss.
				if _, err := stmt.Query(b.Context()); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The write stream is not the measured quantity: the
					// metric is read latency between committed writes.
					b.StopTimer()
					tup := dbpl.NewTuple(dbpl.Str(leaf), dbpl.Str(fmt.Sprintf("x%08d", i)))
					if err := db.Insert("Infront", tup); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := stmt.Query(b.Context()); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if mode.name == "maintained" {
					if mv := db.Health().MatViews; mv.Maintained == 0 {
						b.Fatalf("maintained variant never maintained: %+v", mv)
					}
				}
			})
		}
	}
}
