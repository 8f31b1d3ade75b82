package main

// paged_cold: embedded, paged engine, 64-page buffer pool, SyncNever. Stock
// and Extra each hold far more pages than the pool, and the engine keeps only
// the most recently touched relation materialized, so a read of Stock after a
// write to Extra (and the reverse) always re-materialises through eviction.
// Pagestore, buffer pool, incremental checkpoints and recovery do the work.
//
// The designated read is a whole-relation fetch (DB.Relation plus a full
// iteration), not Stock[at(x)]: a query snapshots every variable in the
// engine's map order, so with two oversized relations it materialises one or
// two of them and builds or skips the access path at random — a two-mode
// latency whose median cannot repeat. The fetch and the insert each fault in
// exactly one relation, every time. Stock[at(x)] is still planned and
// analyzed once by the traced pass.

import (
	"context"
	"fmt"
	"math/rand"

	dbpl "repro"
)

type pagedCold struct {
	base
	sc         scale
	db         *dbpl.DB
	stock      *stock // read every cycle
	extra      *stock // written every cycle
	rng        *rand.Rand
	dig        uint64
	loadBytes  int64
	recoveryMs float64
	// Storage counters over the measured rounds.
	start               dbpl.StorageStats
	reads               int
	readMiss, readEvict uint64
	dirtyMax            int
}

func (w *pagedCold) open() (*dbpl.DB, error) {
	return w.base.open(stockSchema, dbpl.WithPath(w.dir), dbpl.WithSync(dbpl.SyncNever),
		dbpl.WithEngine(dbpl.EnginePaged), dbpl.WithBufferPoolPages(w.sc.poolPages))
}

func (w *pagedCold) setup(ctx context.Context) error {
	var err error
	if w.db, err = w.open(); err != nil {
		return err
	}
	w.rng = newRand(w.seed, "paged_cold/ops")
	w.stock, w.extra = newStock("Stock", w.sc.locs), newStock("Extra", w.sc.locs)
	// Archive is cold data: loaded, checkpointed and never touched again. It
	// makes the heap file larger without changing what an op does.
	archive := newStock("Archive", w.sc.locs)
	for _, load := range []struct {
		s *stock
		n int
	}{{w.stock, w.sc.tuples}, {w.extra, w.sc.tuples}, {archive, w.sc.archive}} {
		rng := newRand(w.seed, "paged_cold/"+load.s.rel)
		for left := load.n; left > 0; left -= w.sc.loadBatch {
			batch := load.s.draw(rng, min(left, w.sc.loadBatch))
			w.loadBytes += userBytes(batch)
			w.span("insert", func() { err = w.db.Insert(load.s.rel, batch...) })
			if err != nil {
				return err
			}
			w.rec.pace()
		}
	}
	if w.db, w.recoveryMs, err = reopen(&w.base, w.db, w.open); err != nil {
		return err
	}
	// First reads after recovery: both relations fault in from the heap file.
	// Extra is read last, so the first cycle's read of Stock is cold.
	for _, s := range []*stock{w.stock, w.extra} {
		if rows, err := w.fetch(s); err != nil {
			return err
		} else if rows != s.all.rows {
			return fmt.Errorf("%s has %d rows after reopen, reference %d", s.rel, rows, s.all.rows)
		}
	}
	w.start = w.db.Health().Storage
	return nil
}

// fetch reads one whole relation and iterates it.
func (w *pagedCold) fetch(s *stock) (int, error) {
	var rel *dbpl.Relation
	var ok bool
	w.span("query", func() { rel, ok = w.db.Relation(s.rel) })
	if !ok {
		return 0, fmt.Errorf("reading %s: %v", s.rel, w.db.Health().Storage.Err)
	}
	return w.iterate(rel), nil
}

func (w *pagedCold) round(ctx context.Context, first, n int) {
	for c := first; c < first+n; c++ {
		before := w.db.Health().Storage
		w.rec.op(w.ln, "read", w.stock.all.rows, func() (int, error) { return w.fetch(w.stock) })
		after := w.db.Health().Storage
		w.reads++
		w.readMiss += after.Misses - before.Misses
		w.readEvict += after.Evictions - before.Evictions

		batch := w.extra.draw(w.rng, w.sc.writeBatch)
		w.rec.op(w.ln, "write", 0, func() (int, error) {
			var err error
			w.span("insert", func() { err = w.db.Insert(w.extra.rel, batch...) })
			return 0, err
		})
		w.dirtyMax = max(w.dirtyMax, w.db.Health().Storage.DirtyPages)
		if c%w.sc.period == w.sc.period-1 {
			w.rec.op(w.ln, "checkpoint", 0, func() (int, error) {
				var err error
				w.span("checkpoint", func() { err = w.db.Checkpoint() })
				return 0, err
			})
		}
		w.dig = foldHash(w.dig, w.extra.all.sum)
		w.rec.pace()
	}
}

// verify reads Extra last, so the next round's first read of Stock is cold
// like every other.
func (w *pagedCold) verify(ctx context.Context) error {
	for _, s := range []*stock{w.stock, w.extra} {
		rel, ok := w.db.Relation(s.rel)
		if !ok {
			return fmt.Errorf("reading %s: %v", s.rel, w.db.Health().Storage.Err)
		}
		if got := relFingerprint(rel); got != s.all {
			return fmt.Errorf("%s fingerprint %+v, reference %+v", s.rel, got, s.all)
		}
	}
	return nil
}

func (w *pagedCold) digest() uint64 { return w.dig }

func (w *pagedCold) close() error { return w.closeDB(&w.db) }

func (w *pagedCold) probes(ctx context.Context, m map[string]float64) error {
	st := w.db.Health().Storage
	hits, misses := st.Hits-w.start.Hits, st.Misses-w.start.Misses
	if hits+misses > 0 {
		m["pagestore.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["pagestore.misses_per_read"] = float64(w.readMiss) / float64(max(w.reads, 1))
	m["pagestore.evictions_per_read"] = float64(w.readEvict) / float64(max(w.reads, 1))
	m["pagestore.write_backs"] = float64(st.WriteBacks - w.start.WriteBacks)
	m["pagestore.overflows"] = float64(st.Overflows - w.start.Overflows)
	m["pagestore.heap_slots"] = float64(st.HeapSlots)
	m["pagestore.pool_pages"] = float64(st.PoolPages)
	m["pagestore.dirty_pages_max"] = float64(w.dirtyMax)
	m["pagestore.reopen_ms"] = w.recoveryMs
	m["wal.recovery_ms"] = w.recoveryMs
	m["pagestore.disk_bytes_per_user_byte"] = float64(dirBytes(w.dir)) / float64(w.loadBytes)

	p := prober{ctx: ctx, db: w.db, m: m}
	loc := w.stock.locs[0]
	p.parse(stockAtQuery, stockSchema)
	sel, err := w.db.Prepare(stockAtQuery)
	if err != nil {
		return err
	}
	p.optimizer(sel)
	p.analyze(sel, loc)
	p.matview(w.mv, 0)
	m["wal.tail_records_max"] = float64(w.db.Health().TailRecords)
	rel, _ := w.db.Relation(w.stock.rel)
	p.relation(rel, 1)
	p.accessPath(rel, 1, dbpl.Str(loc))
	sample := w.extra.draw(w.rng, w.sc.writeBatch)
	if err := w.db.Insert(w.extra.rel, sample...); err != nil {
		return err
	}
	p.wal(w.dir, w.extra.rel, sample)
	p.durable(&w.base, func() (int64, error) {
		b := w.extra.draw(w.rng, w.sc.writeBatch)
		return userBytes(b), w.db.Insert(w.extra.rel, b...)
	})
	m["pagestore.checkpoint_pages"] = float64(w.db.Health().Storage.LastCheckpointPages)
	p.store()
	return p.err
}
