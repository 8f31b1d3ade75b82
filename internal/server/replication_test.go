package server_test

// End-to-end replication against a shadow-store oracle, in the style of the
// WAL crash-simulation harness: a deterministic mutation workload runs
// against a durable primary behind a real dbpld server, every step is
// mirrored into a shadow store.Database that never touches the network, and
// a checker goroutine continuously fingerprints the replica's state — every
// observation must equal some committed prefix of the workload (the shadow's
// fingerprint history), never a partial batch and never an invented state.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

func pairType(name string) schema.RelationType {
	return schema.RelationType{
		Name: name,
		Element: schema.RecordType{Attrs: []schema.Attribute{
			{Name: "a", Type: schema.StringType()},
			{Name: "b", Type: schema.StringType()},
		}},
		Key: []string{"a", "b"},
	}
}

func tup(a, b string) value.Tuple {
	return value.NewTuple(value.Str(a), value.Str(b))
}

func saveBytes(t *testing.T, save func(w io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("saving state: %v", err)
	}
	return buf.Bytes()
}

// repStep is one unit of the replicated workload, expressed against the
// store API so the primary and the shadow run the identical operation.
type repStep struct {
	name string
	run  func(db *store.Database) error
}

func repWorkload() []repStep {
	assignRel := func() *relation.Relation {
		rel := relation.New(pairType("edge"))
		for _, tp := range []value.Tuple{tup("x", "y"), tup("y", "z")} {
			if err := rel.Insert(tp); err != nil {
				panic(err)
			}
		}
		return rel
	}
	return []repStep{
		{"declare-edge", func(db *store.Database) error { return db.Declare("Edge", pairType("edge")) }},
		{"insert-1", func(db *store.Database) error { return db.Insert("Edge", tup("a", "b"), tup("b", "c")) }},
		{"declare-link", func(db *store.Database) error { return db.Declare("Link", pairType("link")) }},
		{"insert-2", func(db *store.Database) error { return db.Insert("Link", tup("l1", "l2")) }},
		{"tx-commit", func(db *store.Database) error {
			// A transaction commit replicates as one batch: the replica must
			// apply both insert deltas atomically or not at all.
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			if err := tx.Insert("Edge", tup("c", "d")); err != nil {
				return err
			}
			if err := tx.Insert("Link", tup("l2", "l3")); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"assign", func(db *store.Database) error { return db.Assign("Edge", assignRel()) }},
		{"insert-3", func(db *store.Database) error { return db.Insert("Link", tup("l3", "l4")) }},
	}
}

// prefixChecker polls a state source and asserts every observation matches a
// known committed-prefix fingerprint.
type prefixChecker struct {
	mu     sync.Mutex
	prints [][]byte
}

func (p *prefixChecker) add(fp []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.prints = append(p.prints, fp)
}

func (p *prefixChecker) matches(got []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fp := range p.prints {
		if bytes.Equal(got, fp) {
			return true
		}
	}
	return false
}

func (p *prefixChecker) last() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prints[len(p.prints)-1]
}

// runStepsMirrored drives the workload: the shadow commits first (so the
// checker's fingerprint set always covers what the replica may observe), then
// the primary — whose commit is what actually replicates.
func runStepsMirrored(t *testing.T, steps []repStep, shadow, primary *store.Database, chk *prefixChecker) {
	t.Helper()
	for _, s := range steps {
		if err := s.run(shadow); err != nil {
			t.Fatalf("shadow step %s: %v", s.name, err)
		}
		chk.add(saveBytes(t, shadow.Save))
		if err := s.run(primary); err != nil {
			t.Fatalf("primary step %s: %v", s.name, err)
		}
	}
}

// waitConverged polls until the replica's fingerprint equals want.
func waitConverged(t *testing.T, rdb *dbpl.DB, want []byte, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := saveBytes(t, rdb.Save)
		if bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged (%s)", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Durable primary behind a real server.
	pdb, err := dbpl.Open(dbpl.WithPath(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	_, paddr := boot(t, pdb, server.Options{})

	// Replica: memory-only database + tailer + its own read-only server.
	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	_, raddr := boot(t, rdb, server.Options{Replica: rep})
	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	tailDone := make(chan struct{})
	go func() { defer close(tailDone); rep.Run(tailCtx) }() //nolint:errcheck

	shadow := store.NewDatabase()
	chk := &prefixChecker{}
	chk.add(saveBytes(t, shadow.Save)) // the empty state is a valid prefix

	// Continuous prefix checking while the workload replicates.
	checkCtx, stopCheck := context.WithCancel(ctx)
	checkDone := make(chan error, 1)
	go func() {
		for checkCtx.Err() == nil {
			var buf bytes.Buffer
			if err := rdb.Save(&buf); err != nil {
				checkDone <- fmt.Errorf("saving replica state: %w", err)
				return
			}
			if !chk.matches(buf.Bytes()) {
				checkDone <- fmt.Errorf("replica state matches no committed prefix (%d bytes)", buf.Len())
				return
			}
			time.Sleep(time.Millisecond)
		}
		checkDone <- nil
	}()

	primaryStore := pdb.StoreSnapshot()
	runStepsMirrored(t, repWorkload(), shadow, primaryStore, chk)
	waitConverged(t, rdb, chk.last(), "after the initial workload")

	stopCheck()
	if err := <-checkDone; err != nil {
		t.Fatal(err)
	}

	// The replica serves the same query results as the primary.
	pc := openClient(t, paddr)
	rc := openClient(t, raddr)
	if rc.Role() != "replica" {
		t.Fatalf("replica announces role %q", rc.Role())
	}
	for _, q := range []string{`Edge`, `Link`} {
		want := queryTuples(t, pc, q)
		got := queryTuples(t, rc, q)
		if want != got {
			t.Fatalf("query %s diverged:\nprimary: %s\nreplica: %s", q, want, got)
		}
	}

	// Writes are rejected with the read-only sentinel.
	_, err = rc.ExecContext(ctx, `
MODULE w;
Edge := {<"no","no">};
END w.
`)
	if !errors.Is(err, dbpl.ErrReadOnly) {
		t.Fatalf("replica write: %v, want errors.Is ErrReadOnly", err)
	}
	if _, err := rc.Begin(ctx); !errors.Is(err, dbpl.ErrReadOnly) {
		t.Fatalf("replica Begin: %v, want errors.Is ErrReadOnly", err)
	}
	// Pure declarations extend the replica's query vocabulary: allowed.
	if _, err := rc.ExecContext(ctx, `
MODULE v;
TYPE edget = RELATION OF RECORD a, b: STRING END;
SELECTOR from (X: STRING) FOR Rel: edget;
BEGIN EACH r IN Rel: r.a = X END from;
END v.
`); err != nil {
		t.Fatalf("declaration-only module on replica: %v", err)
	}
	sel := queryTuples(t, rc, `Edge[from("x")]`)
	if !strings.Contains(sel, `<"x", "y">`) {
		t.Fatalf("selector over replicated data: %s", sel)
	}

	// Replica health reports the tail. Applied may legitimately still be zero
	// here — the bootstrap snapshot can already cover the whole workload — so
	// commit one more step while the stream is live and wait for the batch
	// counter to move.
	h, err := rc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "replica" || !h.Connected {
		t.Fatalf("replica health = %+v", h)
	}
	streamed := []repStep{
		{"streamed-insert", func(db *store.Database) error { return db.Insert("Link", tup("s1", "s2")) }},
	}
	runStepsMirrored(t, streamed, shadow, primaryStore, chk)
	waitConverged(t, rdb, chk.last(), "after a streamed insert")
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err = rc.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Applied >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reported an applied batch: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A variable declared on the primary after the replica attached reaches
	// it as a streamed declaration record. The store is the one source of
	// variable types, so a selector-only module ranging over it type-checks on
	// the replica, like a query over it.
	late := []repStep{
		{"streamed-declare", func(db *store.Database) error { return db.Declare("Late", pairType("late")) }},
		{"streamed-fill", func(db *store.Database) error { return db.Insert("Late", tup("x", "z")) }},
	}
	runStepsMirrored(t, late, shadow, primaryStore, chk)
	waitConverged(t, rdb, chk.last(), "after a streamed declaration")
	if _, err := rc.ExecContext(ctx, `
MODULE l;
SELECTOR late () FOR Rel: edget;
BEGIN EACH r IN Rel: SOME l IN Late (r.a = l.a) END late;
END l.
`); err != nil {
		t.Fatalf("selector over a variable the replica learned from the stream: %v", err)
	}
	if sel := queryTuples(t, rc, `Edge[late]`); !strings.Contains(sel, `<"x", "y">`) {
		t.Fatalf("selector over a streamed variable: %s", sel)
	}

	// Catch-up across a checkpoint that compacts the log: disconnect the
	// tailer, commit more work, checkpoint the primary (folding the log tail
	// into a new snapshot generation), then reconnect — the replica must
	// re-bootstrap from the compacted snapshot and converge.
	stopTail()
	<-tailDone
	more := []repStep{
		{"post-insert-1", func(db *store.Database) error { return db.Insert("Edge", tup("m", "n")) }},
		{"post-insert-2", func(db *store.Database) error { return db.Insert("Link", tup("l4", "l5")) }},
	}
	runStepsMirrored(t, more, shadow, primaryStore, chk)
	if err := pdb.Checkpoint(); err != nil {
		t.Fatalf("compacting checkpoint: %v", err)
	}
	tailCtx2, stopTail2 := context.WithCancel(ctx)
	defer stopTail2()
	go rep.Run(tailCtx2) //nolint:errcheck
	waitConverged(t, rdb, chk.last(), "after reconnecting across a checkpoint")
	if st := rep.Status(); st.Bootstraps < 2 {
		t.Fatalf("replica reconnect did not re-bootstrap: %+v", st)
	}
}

// queryTuples renders a query's result set through the wire client in
// deterministic (sorted) order.
func queryTuples(t *testing.T, c *client.DB, q string) string {
	t.Helper()
	rows, err := c.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	defer rows.Close()
	var tuples []string
	for rows.Next() {
		tuples = append(tuples, rows.Tuple().String())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	sortStrings(tuples)
	return strings.Join(tuples, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestReplicaFallBehindResync forces the fall-behind cutoff: a tiny follow
// buffer and a paused replica make the primary cut the stream, and the
// replica must recover by re-bootstrapping — ending at the primary's exact
// final state.
func TestReplicaFallBehindResync(t *testing.T) {
	pdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	_, paddr := boot(t, pdb, server.Options{FollowBuffer: 1})

	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go rep.Run(ctx) //nolint:errcheck

	st := pdb.StoreSnapshot()
	if err := st.Declare("N", pairType("n")); err != nil {
		t.Fatal(err)
	}
	// Burst far past the follow buffer; some subscriber is likely cut off,
	// and the replica must still converge by resync.
	for i := 0; i < 200; i++ {
		if err := st.Insert("N", tup(fmt.Sprintf("k%03d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, st.Save)
	waitConverged(t, rdb, want, "after a burst past the follow buffer")
}

const closureSchema = `
MODULE cad;
TYPE parttype   = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel   = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN
  EACH r IN Rel: TRUE,
  <f.front, b.tail> OF EACH f IN Rel, EACH b IN Rel{ahead}: f.back = b.head
END ahead;
END cad.
`

// TestReplicationTxInsertShipsDelta: an insert-only transaction on the primary
// reaches a follower as a frame the size of its batch, not of the variable,
// and replays on the replica as growth — the replica's materialized closure is
// maintained from the delta, not invalidated.
func TestReplicationTxInsertShipsDelta(t *testing.T) {
	ctx := context.Background()
	pdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	if _, err := pdb.Exec(closureSchema); err != nil {
		t.Fatal(err)
	}
	const rows, batchRows = 5000, 8
	edges := make([]value.Tuple, rows)
	for i := range edges {
		edges[i] = tup(fmt.Sprintf("n%05d", i), fmt.Sprintf("m%05d", i))
	}
	if err := pdb.Insert("Infront", edges...); err != nil {
		t.Fatal(err)
	}
	_, paddr := boot(t, pdb, server.Options{})

	// A raw follower, to see the frames a replica is sent.
	conn, err := net.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := wire.ClientHello(conn, br, ""); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.TFollow, nil); err != nil {
		t.Fatal(err)
	}
	typ, snap, err := wire.ReadFrame(br)
	if err != nil || typ != wire.TFollowSnap {
		t.Fatalf("follow bootstrap: frame type %d, err %v", typ, err)
	}

	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	go rep.Run(tailCtx) //nolint:errcheck
	waitConverged(t, rdb, saveBytes(t, pdb.Save), "after bootstrap")
	if _, err := rdb.Exec(closureSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.Query(`Infront{ahead}`); err != nil { // install the view
		t.Fatal(err)
	}
	before := rdb.Health().MatViews

	tx, err := pdb.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batchRows; i++ {
		// Each new edge extends an existing one, so the closure really grows.
		if err := tx.Insert("Infront", tup(fmt.Sprintf("m%05d", i), fmt.Sprintf("x%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	typ, frame, err := wire.ReadFrame(br)
	if err != nil || typ != wire.TFollowBatch {
		t.Fatalf("follow stream: frame type %d, err %v", typ, err)
	}
	if len(frame) >= 1<<10 || len(frame) >= len(snap)/20 {
		t.Fatalf("follow frame for a %d-tuple Tx.Insert is %d bytes (snapshot %d): not O(batch)", batchRows, len(frame), len(snap))
	}
	batch, err := wal.DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].Op != store.OpInsert || len(batch[0].Tuples) != batchRows {
		t.Fatalf("follow frame is not one %d-tuple insert delta: %+v", batchRows, batch)
	}

	waitConverged(t, rdb, saveBytes(t, pdb.Save), "after the Tx.Insert commit")
	got, err := rdb.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pdb.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Len() != rows+2*batchRows {
		t.Fatalf("replica closure has %d tuples, primary %d, expected %d", got.Len(), want.Len(), rows+2*batchRows)
	}
	after := rdb.Health().MatViews
	if after.Maintained <= before.Maintained || after.Invalidations != before.Invalidations {
		t.Fatalf("replica matview was not maintained from the delta: before %+v, after %+v", before, after)
	}
}

// TestReplicationAssignMaintainsReplicaView: a primary Assign that re-draws
// one edge ships as a whole value, and the replica's store sees an overwrite
// of the view's base — which its materialized closure absorbs as a signed
// delta instead of being invalidated and recomputed.
func TestReplicationAssignMaintainsReplicaView(t *testing.T) {
	ctx := context.Background()
	pdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	if _, err := pdb.Exec(closureSchema); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	edges := make([]value.Tuple, rows)
	for i := range edges {
		edges[i] = tup(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i+1))
	}
	if err := pdb.Insert("Infront", edges...); err != nil {
		t.Fatal(err)
	}
	_, paddr := boot(t, pdb, server.Options{})

	rdb, err := dbpl.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rep := server.NewReplica(rdb, paddr, "", t.Logf)
	rep.ReconnectDelay = 10 * time.Millisecond
	tailCtx, stopTail := context.WithCancel(ctx)
	defer stopTail()
	go rep.Run(tailCtx) //nolint:errcheck
	waitConverged(t, rdb, saveBytes(t, pdb.Save), "after bootstrap")
	if _, err := rdb.Exec(closureSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.Query(`Infront{ahead}`); err != nil { // install the view
		t.Fatal(err)
	}
	before := rdb.Health().MatViews

	// Cut the chain in the middle and hang the tail off its head instead.
	cur, _ := pdb.Relation("Infront")
	redrawn := relation.New(cur.Type())
	for i, e := range edges {
		if i == rows/2 {
			e = tup("n000", fmt.Sprintf("n%03d", i+1))
		}
		redrawn.Add(e)
	}
	if err := pdb.Assign("Infront", redrawn); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, rdb, saveBytes(t, pdb.Save), "after the Assign")
	got, err := rdb.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pdb.Query(`Infront{ahead}`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("replica closure has %d tuples, primary %d", got.Len(), want.Len())
	}
	after := rdb.Health().MatViews
	if after.Maintained <= before.Maintained || after.Invalidations != before.Invalidations || after.Misses != before.Misses {
		t.Fatalf("replica matview was not maintained through the Assign: before %+v, after %+v", before, after)
	}
}
