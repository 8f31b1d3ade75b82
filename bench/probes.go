package main

// Per-layer metrics of the traced pass. Timings come from the spans the
// workloads recorded and from direct probes of each layer's public functions
// against the workload's loaded data; counts come from public introspection
// (Health, EXPLAIN ANALYZE counters, CachedPaths, file sizes).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dbpl "repro"

	"repro/internal/accesspath"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

const probeReps = 9

// timeMedian runs fn reps times and returns the median duration in units of
// unit (time.Microsecond for us, time.Millisecond for ms).
func timeMedian(reps int, unit time.Duration, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(ds)
}

// layerMetrics assembles every per-layer metric: the process, tail and trace
// numbers the harness can compute for any workload, then the workload's own
// probes.
func layerMetrics(ctx context.Context, w workload, tr *tracer, rounds []roundStats, before, after runtime.MemStats, quick bool) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayerDefs))
	pooled := map[string][]float64{}
	var ops int
	var ratios []float64
	for i, r := range rounds {
		ops += r.ops
		for class, lat := range r.lat {
			pooled[class] = append(pooled[class], lat...)
		}
		// Rounds alternate untraced/traced in neighbouring pairs (U T)(T U)(U T).
		if i%2 == 1 {
			u, t := rounds[i-1], r
			if u.traced {
				u, t = t, u
			}
			ratios = append(ratios, t.opsPerS(t.atReference())/u.opsPerS(u.atReference()))
		}
	}
	m["eval.point_ms_p50"] = median(pooled["point"])
	m["eval.join_ms_p50"] = median(pooled["join"])
	m["tail.read_ms_p99"] = quantile(pooled["read"], 0.99)
	m["tail.write_ms_p99"] = quantile(pooled["write"], 0.99)
	m["tail.read_ms_max"] = quantile(pooled["read"], 1)
	m["trace.overhead_ratio"] = median(ratios)
	m["proc.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e3 / float64(max(ops, 1))
	m["proc.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["proc.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())

	spans := tr.all()
	m["store.commit_us_p50"] = 1e3 * median(spanDurationsMs(spans, "tx.commit"))
	if err := w.probes(ctx, m); err != nil {
		return nil, err
	}
	// Checkpoint spans include the ones the workload's probes just took.
	m["wal.checkpoint_ms_p50"] = median(spanDurationsMs(tr.all(), "checkpoint"))
	m["proc.peak_rss_mb"] = peakRSSMB()
	// Quick rounds last milliseconds; their ratio is noise, not overhead.
	if m["trace.overhead_ratio"] < 0.8 && !quick {
		return nil, fmt.Errorf("trace.overhead_ratio %.3f is below 0.8: tracing distorts what it measures", m["trace.overhead_ratio"])
	}
	return m, nil
}

// prober runs the direct layer probes against one embedded database handle.
// The first failure sticks in err and turns later probes into no-ops.
type prober struct {
	ctx context.Context
	db  *dbpl.DB
	m   map[string]float64
	err error
}

func (p *prober) fail(err error) bool {
	if p.err == nil && err != nil {
		p.err = err
	}
	return p.err != nil
}

// parse times the parser on the workload's designated query and on the module
// text its writes (or, without module writes, its schema) go through, and
// Prepare on the query.
func (p *prober) parse(query, module string) {
	if p.err != nil {
		return
	}
	p.m["parser.parse_query_us"] = timeMedian(probeReps, time.Microsecond, func() {
		if _, err := parser.ParseRange(query); err != nil {
			_, err = parser.ParseSetExpr(query)
			p.fail(err)
		}
	})
	p.m["parser.parse_module_us"] = timeMedian(probeReps, time.Microsecond, func() {
		_, err := parser.ParseModule(module)
		p.fail(err)
	})
	p.m["compile.prepare_us"] = timeMedian(probeReps, time.Microsecond, func() {
		st, err := p.db.Prepare(query)
		if !p.fail(err) {
			st.Close()
		}
	})
}

// optimizer counts, over the workload's statements, the optimizer passes that
// changed a query and the plans the magic restriction applies to.
func (p *prober) optimizer(stmts ...*dbpl.Stmt) {
	for _, st := range stmts {
		plan := st.Plan()
		for _, pass := range plan.Passes {
			if pass.Applied {
				p.m["optimizer.passes_applied"]++
			}
		}
		if plan.Magic != nil {
			p.m["optimizer.magic_applied"]++
		}
	}
}

// analyze executes the designated read once under EXPLAIN ANALYZE and records
// the executor, fixpoint and matview-maintenance counters of that execution.
func (p *prober) analyze(st *dbpl.Stmt, args ...any) {
	if p.err != nil {
		return
	}
	plan, err := st.ExplainQuery(p.ctx, args...)
	if p.fail(err) {
		return
	}
	a := plan.Analyze
	var rowsIn, batches int64
	workers := 0
	for _, op := range a.Operators {
		rowsIn += op.RowsIn
		batches += op.Batches
		workers = max(workers, op.Workers)
	}
	p.m["eval.rows_in_per_row_out"] = float64(rowsIn) / float64(max(a.Rows, 1))
	p.m["eval.batches"] = float64(batches)
	p.m["eval.workers_max"] = float64(workers)
	p.m["eval.partition_lookups"] = float64(a.PartitionLookups)
	p.m["eval.scans"] = float64(a.Scans)
	p.m["fixpoint.rounds"] = float64(a.Rounds)
	p.m["fixpoint.evaluations"] = float64(a.Evaluations)
	p.m["fixpoint.max_delta"] = float64(a.MaxDelta)
	p.m["matview.maintain_delta_rows"] = float64(a.MatViewDelta)
	p.m["matview.maintain_rounds"] = float64(a.MatViewRounds)
}

// matview reports the cache's read outcomes inside the rounds.
func (p *prober) matview(c mvCount, backlogMax int) {
	if served := c.hits + c.maintained; served+c.misses > 0 {
		p.m["matview.hit_ratio"] = float64(served) / float64(served+c.misses)
	}
	p.m["matview.maintained"] = float64(c.maintained)
	p.m["matview.misses"] = float64(c.misses)
	p.m["matview.invalidations"] = float64(c.invalidations)
	p.m["matview.backlog_max"] = float64(backlogMax)
}

// relation probes the relation layer on the workload's main relation: an O(1)
// clone plus a 64-tuple growth batch, a join-index build on one position,
// probes of that index, and a full iteration.
func (p *prober) relation(rel *dbpl.Relation, pos int) {
	if p.err != nil {
		return
	}
	fresh := make([]dbpl.Tuple, 64)
	for i := range fresh {
		fresh[i] = pair(fmt.Sprintf("probe-%d", i), fmt.Sprintf("probe-%d", i+1))
	}
	p.m["relation.clone_add_us"] = timeMedian(probeReps, time.Microsecond, func() {
		next := rel.Clone()
		for _, t := range fresh {
			next.Add(t)
		}
	})
	var idx *relation.Index
	p.m["relation.index_build_ms"] = timeMedian(3, time.Millisecond, func() {
		idx = relation.BuildIndex(rel, []int{pos})
	})
	keys := make([]dbpl.Tuple, 0, 1024)
	rel.Each(func(t dbpl.Tuple) bool {
		keys = append(keys, dbpl.NewTuple(t[pos]))
		return len(keys) < cap(keys)
	})
	hits := 0
	perBatch := timeMedian(probeReps, time.Nanosecond, func() {
		for _, k := range keys {
			hits += len(idx.Probe(k))
		}
	})
	if hits == 0 {
		p.fail(fmt.Errorf("index probes found nothing"))
	}
	p.m["relation.index_probe_ns"] = perBatch / float64(len(keys))
	rows := 0
	perScan := timeMedian(3, time.Nanosecond, func() {
		rel.Each(func(dbpl.Tuple) bool { rows++; return true })
	})
	p.m["relation.iterate_ns_per_row"] = perScan / float64(max(rel.Len(), 1))
}

// accessPath builds the hash partition of rel on one position the way the
// store does lazily, and looks one value up in it.
func (p *prober) accessPath(rel *dbpl.Relation, pos int, v dbpl.Value) {
	if p.err != nil {
		return
	}
	var phys *accesspath.Physical
	p.m["accesspath.build_ms"] = timeMedian(3, time.Millisecond, func() {
		var err error
		phys, err = accesspath.BuildPhysicalAt(rel, pos)
		p.fail(err)
	})
	if p.err != nil {
		return
	}
	p.m["accesspath.lookup_us"] = timeMedian(probeReps, time.Microsecond, func() {
		phys.Lookup(v).Each(func(dbpl.Tuple) bool { return true })
	})
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// store serializes the whole database once (the memory engine's checkpoint
// image) and reports the access paths the session has cached.
func (p *prober) store() {
	if p.err != nil {
		return
	}
	var cw countingWriter
	p.m["store.snapshot_save_ms"] = timeMedian(1, time.Millisecond, func() { p.fail(p.db.Save(&cw)) })
	p.m["store.snapshot_bytes"] = float64(cw.n)
	p.m["accesspath.cached_paths"] = float64(p.db.StoreSnapshot().CachedPaths())
}

// wal probes the log's batch encoder on a representative write batch and the
// device floor under a synced commit: a raw 4 KB append plus fsync on the
// benchmark's data directory.
func (p *prober) wal(dir, variable string, batch []dbpl.Tuple) {
	if p.err != nil {
		return
	}
	muts := []store.Mutation{{Op: store.OpInsert, Name: variable, Tuples: batch}}
	p.m["wal.encode_batch_us"] = timeMedian(probeReps, time.Microsecond, func() {
		_, err := wal.EncodeBatch(muts)
		p.fail(err)
	})
	f, err := os.OpenFile(filepath.Join(dir, "sync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if p.fail(err) {
		return
	}
	defer f.Close()
	block := make([]byte, 4096)
	p.m["wal.sync_probe_ms"] = timeMedian(probeReps, time.Millisecond, func() {
		if _, err := f.Write(block); err != nil {
			p.fail(err)
		}
		p.fail(f.Sync())
	})
}

// durable measures the log's write amplification on up to four further writes
// of the workload's designated write class (a write during which the log
// rotated is skipped), then takes three checkpoints, each after one more
// write, under "checkpoint" spans. write returns the payload bytes it handed
// to the program.
func (p *prober) durable(b *base, write func() (int64, error)) {
	var logged, user int64
	for i := 0; i < 4 && p.err == nil; i++ {
		gen, before := p.db.Health().Generation, dirBytes(b.dir)
		n, err := write()
		if p.fail(err) {
			return
		}
		if p.db.Health().Generation == gen {
			logged += dirBytes(b.dir) - before
			user += n
		}
	}
	if user > 0 {
		p.m["wal.bytes_per_user_byte"] = float64(logged) / float64(user)
	}
	for i := 0; i < 3 && p.err == nil; i++ {
		if _, err := write(); p.fail(err) {
			return
		}
		b.span("checkpoint", func() { p.fail(p.db.Checkpoint()) })
	}
	if st := p.db.Health().Storage; st.Enabled {
		p.m["wal.checkpoint_bytes"] = float64(st.LastCheckpointBytes)
		return
	}
	snaps, _ := filepath.Glob(filepath.Join(b.dir, "snap-*.dbpl"))
	for _, s := range snaps {
		if info, err := os.Stat(s); err == nil {
			p.m["wal.checkpoint_bytes"] = float64(info.Size())
		}
	}
}

// wireRows pushes a 256-row batch through the protocol's encoder and one
// frame write and read, the per-fetch cost of a served cursor.
func (p *prober) wireRows(rows []dbpl.Tuple) {
	if p.err != nil {
		return
	}
	p.m["wire.encode_rows_us"] = timeMedian(probeReps, time.Microsecond, func() {
		e := wire.NewEnc()
		e.Uvarint(uint64(len(rows)))
		for _, t := range rows {
			for _, v := range t {
				e.Value(v)
			}
		}
		e.Bool(true)
		payload, err := e.Payload()
		if p.fail(err) {
			return
		}
		var buf bytes.Buffer
		if p.fail(wire.WriteFrame(&buf, wire.TRowsBatch, payload)) {
			return
		}
		_, got, err := wire.ReadFrame(&buf)
		if !p.fail(err) && len(got) != len(payload) {
			p.fail(io.ErrUnexpectedEOF)
		}
	})
}
