package dbpl_test

// Scaling benchmarks for the parallel executor, run with
// `go test -bench 'Parallel' -cpu 1,2,4,8`. BenchmarkParallelJoin measures
// the partitioned hash join on self-join set expressions (the E2 join
// workloads at 10k-100k tuples); BenchmarkParallelFixpoint measures
// fan-out across fixpoint equations on the recursive closure workloads
// (E2's ahead over a layered DAG, E8's BOM explode). Parallelism follows
// GOMAXPROCS, so -cpu sweeps the worker budget. CI runs them once as smoke
// steps (BenchmarkParallelJoin asserts its row count); the gating numbers
// come from bench/.

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// BenchmarkParallelJoin measures the partitioned hash self-join over chain
// relations: every outer tuple probes the hash table built on the inner
// side, so the partitioned outer scan is the dominant cost.
func BenchmarkParallelJoin(b *testing.B) {
	const joinQuery = `{<f.front, b.back> OF EACH f IN Infront, EACH b IN Infront: f.back = b.front}`
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("chain-%dk", n/1000), func(b *testing.B) {
			db := openWith(b, cadModule)
			defer db.Close()
			assignEdges(b, db, workload.Chain(n))
			stmt, err := db.Prepare(joinQuery)
			if err != nil {
				b.Fatal(err)
			}
			defer stmt.Close()
			rows := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := stmt.Query(b.Context())
				if err != nil {
					b.Fatal(err)
				}
				rows = rel.Len()
			}
			b.StopTimer()
			if rows != n-1 {
				b.Fatalf("join produced %d rows, want %d", rows, n-1)
			}
		})
	}
}

// BenchmarkParallelFixpoint measures worker fan-out across fixpoint rounds:
// the recursive closure constructors re-evaluate their join bodies every
// round, so both the per-round hash joins and the equation fan-out scale
// with the worker budget.
func BenchmarkParallelFixpoint(b *testing.B) {
	b.Run("ahead-dag", func(b *testing.B) {
		// 8 layers x 1500 nodes, out-degree 1: 10.5k edges whose closure
		// stays linear in the input (at most 7 descendants per node).
		edges := workload.RandomDAG(8, 1500, 1, 1985)
		db := openWith(b, cadModule)
		defer db.Close()
		assignEdges(b, db, edges)
		stmt, err := db.Prepare(`Infront{ahead}`)
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(b.Context()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bom-explode", func(b *testing.B) {
		// ~29k containment edges over 9 levels; explode derives the
		// ancestor-descendant pairs (~100k rows).
		bom := workload.NewBOM(9, 3, 42)
		db := openWith(b, bomModule)
		defer db.Close()
		if err := db.Assign("Contains", bom.Contains); err != nil {
			b.Fatal(err)
		}
		stmt, err := db.Prepare(`Contains{explode}`)
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(b.Context()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
