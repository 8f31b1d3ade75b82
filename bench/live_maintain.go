package main

// live_maintain: embedded, memory engine, durable (SyncNever, automatic
// checkpoint once per period of log records), materialization on. A complete tree's
// closure is computed once at set-up; every cycle commits one insert-only
// transaction of new leaves and re-reads the closure, which the matview cache
// serves by resuming the cached fixpoint with the committed delta. Matview
// maintenance, relation clones, store commit and WAL append dominate; the
// executor does O(delta) work.

import (
	"context"
	"fmt"
	"math/rand"

	dbpl "repro"
)

type liveMaintain struct {
	base
	sc   scale
	db   *dbpl.DB
	t    *tree
	rng  *rand.Rand
	zipf *rand.Zipf
	read *dbpl.Stmt
	dig  uint64
	// hot are the nodes point reads pick from: the second level of the
	// original tree.
	hot        []int
	backlogMax int
	tailMax    int
	recoveryMs float64
}

// open bounds the log with an automatic checkpoint once per period: a
// transaction commit logs its written variable whole, so the tail grows by
// the size of Infront per cycle.
func (w *liveMaintain) open() (*dbpl.DB, error) {
	return w.base.open(cadSchema, dbpl.WithPath(w.dir), dbpl.WithSync(dbpl.SyncNever),
		dbpl.WithCheckpointEvery(w.sc.period))
}

func (w *liveMaintain) setup(ctx context.Context) error {
	var err error
	if w.db, err = w.open(); err != nil {
		return err
	}
	var edges []dbpl.Tuple
	w.t, edges = newTree(w.sc.branching, w.sc.depth)
	w.rng = newRand(w.seed, "live_maintain/ops")
	for v := range w.t.parent {
		if w.t.depth[v] == 2 {
			w.hot = append(w.hot, v)
		}
	}
	w.zipf = rand.NewZipf(w.rng, 1.1, 4, uint64(len(w.hot)-1))
	w.span("insert", func() { err = w.db.Insert("Infront", edges...) })
	if err != nil {
		return err
	}
	if w.db, w.recoveryMs, err = reopen(&w.base, w.db, w.open); err != nil {
		return err
	}
	w.span("prepare", func() { w.read, err = w.db.Prepare(closureQuery) })
	if err != nil {
		return err
	}
	// The first closure is the expensive one: it installs the materialized
	// view every later read resumes from.
	rows, err := w.query(ctx)
	if err != nil {
		return err
	}
	if rows != w.t.closure.rows {
		return fmt.Errorf("first closure has %d rows, reference %d", rows, w.t.closure.rows)
	}
	// First maintained reads and first point read.
	w.round(ctx, 0, w.sc.warmCycles)
	return nil
}

func (w *liveMaintain) round(ctx context.Context, first, n int) {
	before := w.db.Health().MatViews
	defer func() { w.mv.add(before, w.db.Health().MatViews) }()
	for c := first; c < first+n; c++ {
		batch := w.t.grow(w.rng, w.sc.writeBatch)
		w.rec.op(w.ln, "write", 0, func() (int, error) { return 0, w.commit(ctx, batch) })
		h := w.db.Health()
		w.backlogMax = max(w.backlogMax, h.MatViews.Backlog)
		w.tailMax = max(w.tailMax, h.TailRecords)
		w.rec.op(w.ln, "read", w.t.closure.rows, func() (int, error) { return w.query(ctx) })
		if c%4 == 3 {
			v := w.hot[w.zipf.Uint64()]
			w.rec.op(w.ln, "point", int(w.t.below[v]), func() (int, error) {
				var rel *dbpl.Relation
				var err error
				w.span("query", func() { rel, err = w.db.Query(pointQuery(nodeName(v))) })
				if err != nil {
					return 0, err
				}
				return w.iterate(rel), nil
			})
			w.dig = foldHash(w.dig, uint64(v))
		}
		w.dig = foldHash(w.dig, w.t.closure.sum)
		w.rec.pace()
	}
}

// commit inserts one batch of edges in a transaction.
func (w *liveMaintain) commit(ctx context.Context, batch []dbpl.Tuple) error {
	var tx *dbpl.Tx
	var err error
	w.span("tx.begin", func() { tx, err = w.db.Begin(ctx) })
	if err != nil {
		return err
	}
	w.span("insert", func() { err = tx.Insert("Infront", batch...) })
	if err != nil {
		_ = tx.Rollback()
		return err
	}
	w.span("tx.commit", func() { err = tx.Commit() })
	return err
}

func (w *liveMaintain) query(ctx context.Context) (int, error) {
	var rel *dbpl.Relation
	var err error
	w.span("query", func() { rel, err = w.read.Query(ctx) })
	if err != nil {
		return 0, err
	}
	return w.iterate(rel), nil
}

func (w *liveMaintain) verify(ctx context.Context) error {
	rel, err := w.read.Query(ctx)
	if err != nil {
		return err
	}
	if got := relFingerprint(rel); got != w.t.closure {
		return fmt.Errorf("closure fingerprint %+v, reference %+v", got, w.t.closure)
	}
	return nil
}

func (w *liveMaintain) digest() uint64 { return w.dig }

func (w *liveMaintain) close() error { return w.closeDB(&w.db) }

func (w *liveMaintain) probes(ctx context.Context, m map[string]float64) error {
	p := prober{ctx: ctx, db: w.db, m: m}
	p.parse(closureQuery, cadSchema)
	point, err := w.db.Prepare(pointQuery(nodeName(w.hot[0])))
	if err != nil {
		return err
	}
	p.optimizer(w.read, point)
	// One more write so the analyzed read is a maintained one.
	batch := w.t.grow(w.rng, w.sc.writeBatch)
	if err := w.commit(ctx, batch); err != nil {
		return err
	}
	p.analyze(w.read)
	p.matview(w.mv, w.backlogMax)
	m["wal.tail_records_max"] = float64(w.tailMax)
	rel, _ := w.db.Relation("Infront")
	p.relation(rel, 1)
	p.accessPath(rel, 0, dbpl.Str(nodeName(w.hot[0])))
	p.store()
	p.wal(w.dir, "Infront", batch)
	p.durable(&w.base, func() (int64, error) {
		b := w.t.grow(w.rng, w.sc.writeBatch)
		return userBytes(b), w.commit(ctx, b)
	})
	m["wal.recovery_ms"] = w.recoveryMs
	return p.err
}
