package main

// closure_scan: embedded, memory engine, no WAL. A layered random DAG is
// overwritten every cycle with about 1% of its edges re-drawn, which evicts
// the materialized closure and the access paths, so every designated read is
// a full semi-naive fixpoint. Once per period the cycle also runs the two
// secondary classes: a point query between the write and the read, and a
// 3-way join after it. The optimizer, executor, fixpoint and relation layers
// do all the work; wal, pagestore and wire are idle.

import (
	"context"
	"fmt"
	"math/rand"

	dbpl "repro"

	"repro/internal/relation"
)

const cadSchema = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR hidden_by (Obj: parttype) FOR Rel: infrontrel;
BEGIN EACH r IN Rel: r.front = Obj END hidden_by;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END cad.
`

const sceneSchema = `
MODULE scene;
TYPE nm      = STRING;
TYPE partrel = RELATION OF RECORD name, kind: nm END;
TYPE onrel   = RELATION OF RECORD top, base: nm END;
TYPE matrel  = RELATION OF RECORD kind, material: nm END;
VAR Part: partrel;
VAR Ontop: onrel;
VAR Material: matrel;
END scene.
`

const closureQuery = `Infront{ahead}`

// joinQuery is a 3-way equi-join written in the worst syntactic quantifier
// order: the two large relations come first, the selective one last.
func joinQuery(material string) string {
	return fmt.Sprintf(`{<o.top, o.base, m.material> OF EACH o IN Ontop, EACH p IN Part, EACH m IN Material: p.kind = m.kind AND o.top = p.name AND m.material = %q}`, material)
}

func pointQuery(node string) string {
	return fmt.Sprintf(`Infront{ahead}[hidden_by(%q)]`, node)
}

type closureScan struct {
	base
	sc    scale
	db    *dbpl.DB
	g     *dag
	ref   *dagClosure // closure of the DAG state currently assigned
	scene *scene
	rng   *rand.Rand
	zipf  *rand.Zipf
	read  *dbpl.Stmt
	join  *dbpl.Stmt
	dig   uint64
}

func (w *closureScan) setup(ctx context.Context) error {
	var err error
	if w.db, err = w.open(cadSchema); err != nil {
		return err
	}
	if _, err := w.db.ExecContext(ctx, sceneSchema); err != nil {
		return err
	}
	w.rng = newRand(w.seed, "closure_scan/ops")
	w.g = newDAG(newRand(w.seed, "closure_scan/dag"), w.sc.dagLayers, w.sc.dagWidth, w.sc.dagDeg)
	w.scene = newScene(newRand(w.seed, "closure_scan/scene"), w.sc.parts, w.sc.kinds)
	w.zipf = rand.NewZipf(w.rng, 1.1, 4, uint64(w.g.sources()-1))
	for _, load := range []struct {
		name   string
		tuples []dbpl.Tuple
	}{{"Part", w.scene.part}, {"Ontop", w.scene.ontop}, {"Material", w.scene.material}} {
		if err := w.db.Insert(load.name, load.tuples...); err != nil {
			return err
		}
	}
	if err := w.assign(); err != nil {
		return err
	}
	w.span("prepare", func() { w.read, err = w.db.Prepare(closureQuery) })
	if err != nil {
		return err
	}
	w.span("prepare", func() { w.join, err = w.db.Prepare(joinQuery(w.scene.joinMaterial)) })
	if err != nil {
		return err
	}
	// Warm every op class: plan cache, allocator and code paths reach steady
	// state before the first measured cycle. The warm ops are checked and
	// counted like any other; their latencies fall into the discarded round.
	w.round(ctx, 0, w.sc.warmCycles)
	return nil
}

// assign overwrites Infront with the DAG's current edge set and refreshes the
// reference closure.
func (w *closureScan) assign() error {
	cur, ok := w.db.Relation("Infront")
	if !ok {
		return fmt.Errorf("Infront is not declared")
	}
	tuples := w.g.tuples()
	rel, err := relation.FromTuples(cur.Type(), tuples...)
	if err != nil {
		return err
	}
	w.span("assign", func() { err = w.db.Assign("Infront", rel) })
	w.ref = w.g.closure()
	return err
}

func (w *closureScan) round(ctx context.Context, first, n int) {
	before := w.db.Health().MatViews
	for c := first; c < first+n; c++ {
		w.g.redraw(w.rng, max(1, w.g.sources()*w.g.deg/100))
		w.rec.op(w.ln, "write", 0, func() (int, error) { return 0, w.assign() })
		secondary := c%w.sc.period == w.sc.period-1
		// The point query runs before the full read: with the closure evicted
		// by the write it takes the magic-restricted path; after the read it
		// would be answered from the materialized closure.
		v := int(w.zipf.Uint64())
		if secondary {
			w.rec.op(w.ln, "point", w.ref.reachable(v), func() (int, error) {
				var rel *dbpl.Relation
				var err error
				w.span("query", func() { rel, err = w.db.Query(pointQuery(w.g.names[v])) })
				if err != nil {
					return 0, err
				}
				return w.iterate(rel), nil
			})
		}
		w.rec.op(w.ln, "read", w.ref.rows, func() (int, error) {
			return w.query(ctx, w.read)
		})
		if secondary {
			w.rec.op(w.ln, "join", w.scene.joinRows, func() (int, error) {
				return w.query(ctx, w.join)
			})
		}
		w.dig = foldHash(foldHash(w.dig, uint64(w.ref.rows)), uint64(v))
		w.rec.pace()
	}
	w.mv.add(before, w.db.Health().MatViews)
}

// query executes a prepared statement and iterates the whole result.
func (w *closureScan) query(ctx context.Context, st *dbpl.Stmt) (int, error) {
	var rel *dbpl.Relation
	var err error
	w.span("query", func() { rel, err = st.Query(ctx) })
	if err != nil {
		return 0, err
	}
	return w.iterate(rel), nil
}

func (w *closureScan) verify(ctx context.Context) error {
	rel, err := w.read.Query(ctx)
	if err != nil {
		return err
	}
	if got, want := relFingerprint(rel), w.ref.fingerprint(w.g); got != want {
		return fmt.Errorf("closure fingerprint %+v, reference %+v", got, want)
	}
	return nil
}

func (w *closureScan) digest() uint64 { return w.dig }

func (w *closureScan) close() error { return w.closeDB(&w.db) }

func (w *closureScan) probes(ctx context.Context, m map[string]float64) error {
	p := prober{ctx: ctx, db: w.db, m: m}
	p.parse(closureQuery, cadSchema)
	point, err := w.db.Prepare(pointQuery(w.g.names[0]))
	if err != nil {
		return err
	}
	p.optimizer(w.read, w.join, point)
	// One more overwrite so the analyzed read is a full fixpoint.
	w.g.redraw(w.rng, 1)
	if err := w.assign(); err != nil {
		return err
	}
	p.analyze(w.read)
	p.matview(w.mv, 0)
	rel, _ := w.db.Relation("Infront")
	p.relation(rel, 1)
	p.accessPath(rel, 0, dbpl.Str(w.g.names[0]))
	p.store()
	return p.err
}
