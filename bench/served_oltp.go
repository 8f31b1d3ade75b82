package main

// served_oltp: an in-process internal/server on loopback with 2 client
// connections (one goroutine each), durable memory engine, SyncAlways. Each
// connection loops 8 prepared access-path reads of Stock[at(loc)] (Zipf
// location, rows streamed to exhaustion) then 1 remote transaction that
// overwrites the connection's own Moves_k. Wire, server, client, access-path
// lookups and fsync'd commits dominate; eval and fixpoint are trivial. Closed
// loop: each caller waits for its reply.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/server"
)

const (
	servedConns        = 2
	servedReadsPerTurn = 8
)

const stockSchema = `
MODULE wh;
TYPE skurel = RELATION OF RECORD item, loc: STRING END;
VAR Stock: skurel;
VAR Extra: skurel;
VAR Archive: skurel;
VAR Moves_0: skurel;
VAR Moves_1: skurel;

SELECTOR at (Where: STRING) FOR Rel: skurel;
BEGIN EACH r IN Rel: r.loc = Where END at;
END wh.
`

const stockAtQuery = `Stock[at(Where)]`

// movesModule renders the module a connection's write executes: a wholesale
// overwrite of its Moves_k with the given tuples.
func movesModule(k int, tuples []dbpl.Tuple) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MODULE mv;\nMoves_%d := {", k)
	for i, t := range tuples {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "<%q, %q>", t[0].AsString(), t[1].AsString())
	}
	sb.WriteString("};\nEND mv.\n")
	return sb.String()
}

// servedConn is one client connection and its private op stream.
type servedConn struct {
	k     int
	c     *client.DB
	read  *client.Stmt
	ln    *lane
	rng   *rand.Rand
	zipf  *rand.Zipf
	moves *stock // reference model of what Moves_k holds: the last batch
	dig   uint64
}

type servedOLTP struct {
	base
	sc         scale
	db         *dbpl.DB
	srv        *server.Server
	served     chan error
	addr       string
	conns      []*servedConn
	stock      *stock
	tailMax    int
	recoveryMs float64
}

// open sets the automatic checkpoint to once per period of cycles, counted
// in commits over all connections, so every round holds the same number.
func (w *servedOLTP) open() (*dbpl.DB, error) {
	return w.base.open(stockSchema, dbpl.WithPath(w.dir), dbpl.WithSync(dbpl.SyncAlways),
		dbpl.WithCheckpointEvery(servedConns*w.sc.period))
}

func (w *servedOLTP) setup(ctx context.Context) error {
	var err error
	if w.db, err = w.open(); err != nil {
		return err
	}
	w.stock = newStock("Stock", w.sc.locs)
	load := newRand(w.seed, "served_oltp/stock")
	for left := w.sc.tuples; left > 0; left -= w.sc.loadBatch {
		batch := w.stock.draw(load, min(left, w.sc.loadBatch))
		w.span("insert", func() { err = w.db.Insert("Stock", batch...) })
		if err != nil {
			return err
		}
		w.rec.pace()
	}
	if w.db, w.recoveryMs, err = reopen(&w.base, w.db, w.open); err != nil {
		return err
	}
	w.srv = server.New(w.db, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = l.Addr().String()
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(l) }()
	for k := 0; k < servedConns; k++ {
		cn := &servedConn{k: k, ln: w.tr.lane(), rng: newRand(w.seed, fmt.Sprintf("served_oltp/conn-%d", k))}
		cn.zipf = rand.NewZipf(cn.rng, 1.1, 8, uint64(w.sc.locs-1))
		if cn.c, err = client.Open(w.addr); err != nil {
			return err
		}
		w.conns = append(w.conns, cn)
		cn.ln.begin("prepare")
		cn.read, err = cn.c.Prepare(stockAtQuery)
		cn.ln.end()
		if err != nil {
			return err
		}
		// First query: builds the access path over Stock.
		loc := int(cn.zipf.Uint64())
		if rows, err := cn.stockAt(ctx, w.stock.locs[loc], false); err != nil {
			return err
		} else if rows.rows != w.stock.byLoc[loc].rows {
			return fmt.Errorf("first query returned %d rows, reference %d", rows.rows, w.stock.byLoc[loc].rows)
		}
	}
	// First turn of every connection, first write included.
	w.round(ctx, 0, w.sc.warmCycles)
	return nil
}

// stockAt runs the prepared read for one location and streams every row,
// counting them; with digest it also fingerprints them (verification only:
// the hashing would otherwise sit inside the timed read).
func (cn *servedConn) stockAt(ctx context.Context, loc string, digest bool) (fingerprint, error) {
	var f fingerprint
	cn.ln.begin("client.roundtrip")
	rows, err := cn.read.QueryRows(ctx, loc)
	cn.ln.end()
	if err != nil {
		return f, err
	}
	cn.ln.begin("rows.iterate")
	for rows.Next() {
		if f.rows++; digest {
			t := rows.Tuple()
			f.sum += tupleHash(t[0].AsString(), t[1].AsString())
		}
	}
	cn.ln.end()
	return f, rows.Err()
}

// overwrite replaces Moves_k in one remote transaction.
func (cn *servedConn) overwrite(ctx context.Context, src string) error {
	cn.ln.begin("tx.begin")
	tx, err := cn.c.Begin(ctx)
	cn.ln.end()
	if err != nil {
		return err
	}
	cn.ln.begin("tx.exec")
	_, err = tx.Exec(ctx, src)
	cn.ln.end()
	if err != nil {
		_ = tx.Rollback()
		return err
	}
	cn.ln.begin("tx.commit")
	err = tx.Commit()
	cn.ln.end()
	return err
}

func (w *servedOLTP) round(ctx context.Context, first, n int) {
	var wg sync.WaitGroup
	for _, cn := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := first; c < first+n; c++ {
				w.turn(ctx, cn)
			}
		}()
	}
	wg.Wait()
}

// turn is one cycle of one connection: the reads, then the write.
func (w *servedOLTP) turn(ctx context.Context, cn *servedConn) {
	for i := 0; i < servedReadsPerTurn; i++ {
		loc := int(cn.zipf.Uint64())
		w.rec.op(cn.ln, "read", w.stock.byLoc[loc].rows, func() (int, error) {
			f, err := cn.stockAt(ctx, w.stock.locs[loc], false)
			return f.rows, err
		})
		cn.dig = foldHash(cn.dig, uint64(loc))
	}
	cn.moves = newStock(fmt.Sprintf("Moves_%d", cn.k), w.sc.locs)
	batch := cn.moves.draw(cn.rng, w.sc.writeBatch)
	src := movesModule(cn.k, batch)
	w.rec.op(cn.ln, "write", 0, func() (int, error) { return 0, cn.overwrite(ctx, src) })
	cn.dig = foldHash(cn.dig, cn.moves.all.sum)
	if cn.k == 0 {
		w.tailMax = max(w.tailMax, w.db.Health().TailRecords)
		w.rec.pace()
	}
	if cn.k == 0 {
	}
}

// verify checks, per connection, the full contents of one Stock location and
// of the connection's Moves_k against the reference.
func (w *servedOLTP) verify(ctx context.Context) error {
	for _, cn := range w.conns {
		loc := int(cn.zipf.Uint64())
		got, err := cn.stockAt(ctx, w.stock.locs[loc], true)
		if err != nil {
			return err
		}
		if got != w.stock.byLoc[loc] {
			return fmt.Errorf("Stock[at(%s)] fingerprint %+v, reference %+v", w.stock.locs[loc], got, w.stock.byLoc[loc])
		}
		if cn.moves == nil {
			continue
		}
		rel, ok := w.db.Relation(cn.moves.rel)
		if !ok {
			return fmt.Errorf("%s is not declared", cn.moves.rel)
		}
		if got := relFingerprint(rel); got != cn.moves.all {
			return fmt.Errorf("%s fingerprint %+v, reference %+v", cn.moves.rel, got, cn.moves.all)
		}
	}
	return nil
}

func (w *servedOLTP) digest() uint64 {
	var d uint64
	for _, cn := range w.conns {
		d = foldHash(d, cn.dig)
	}
	return d
}

func (w *servedOLTP) close() error {
	for _, cn := range w.conns {
		if cn.c != nil {
			cn.c.Close()
		}
	}
	w.conns = nil
	var err error
	if w.srv != nil {
		err = w.srv.Close()
		<-w.served
		w.srv = nil
	}
	if cerr := w.closeDB(&w.db); err == nil {
		err = cerr
	}
	return err
}

func (w *servedOLTP) probes(ctx context.Context, m map[string]float64) error {
	p := prober{ctx: ctx, db: w.db, m: m}
	cn := w.conns[0]
	sample := newStock("Moves_0", w.sc.locs).draw(cn.rng, w.sc.writeBatch)
	p.parse(stockAtQuery, movesModule(0, sample))
	st, err := w.db.Prepare(stockAtQuery)
	if err != nil {
		return err
	}
	p.optimizer(st)
	loc := w.stock.locs[0]
	p.analyze(st, loc)
	p.matview(w.mv, 0)
	m["wal.tail_records_max"] = float64(w.tailMax)
	m["wal.recovery_ms"] = w.recoveryMs

	// Round trip alone, and the served read against the same prepared read on
	// the embedded handle: the difference is what wire, server and client add.
	m["wire.rtt_us_p50"] = timeMedian(200, time.Microsecond, func() {
		_, err := cn.c.Health(ctx)
		p.fail(err)
	})
	served := timeMedian(200, time.Microsecond, func() {
		_, err := cn.stockAt(ctx, loc, false)
		p.fail(err)
	})
	embedded := timeMedian(200, time.Microsecond, func() {
		rel, err := st.Query(ctx, loc)
		if !p.fail(err) {
			rel.Each(func(dbpl.Tuple) bool { return true })
		}
	})
	m["server.overhead_us_p50"] = served - embedded

	rel, _ := w.db.Relation("Stock")
	p.wireRows(rel.Slice()[:min(256, rel.Len())])
	p.relation(rel, 1)
	p.accessPath(rel, 1, dbpl.Str(loc))
	p.store()
	p.wal(w.dir, "Moves_0", sample)
	p.durable(&w.base, func() (int64, error) {
		b := newStock("Moves_0", w.sc.locs).draw(cn.rng, w.sc.writeBatch)
		return userBytes(b), cn.overwrite(ctx, movesModule(0, b))
	})
	return p.err
}
