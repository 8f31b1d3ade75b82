package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsx"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

var kvT = schema.RelationType{Name: "kv",
	Element: schema.RecordType{Attrs: []schema.Attribute{
		{Name: "k", Type: schema.IntType()},
		{Name: "v", Type: schema.StringType()},
	}}, Key: []string{"k"}}

func kv(k int, v string) value.Tuple { return value.NewTuple(value.Int(int64(k)), value.Str(v)) }

// smallCfg keeps pages and the pool tiny so even modest workloads spill.
func smallCfg(fs fsx.FS) Config {
	return Config{FS: fs, PageSize: 128, PoolPages: 4, ResidentBytes: -1}
}

// openDir opens an engine on the fixed dir "db" so reopen tests hit the
// same heap file on the shared filesystem.
func openDir(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open("db", cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return e
}

// load publishes n keyed tuples through PublishDelta in batches, mirroring
// how the store grows a relation.
func load(e *Engine, rel *relation.Relation, lo, hi int) *relation.Relation {
	var tuples []value.Tuple
	next := rel.Clone()
	for k := lo; k < hi; k++ {
		tup := kv(k, fmt.Sprintf("value-%04d", k))
		tuples = append(tuples, tup)
		if err := next.Insert(tup); err != nil {
			panic(err)
		}
	}
	e.PublishDelta("R", tuples, next)
	return next
}

func wantTuples(t *testing.T, e *Engine, name string, want int) *relation.Relation {
	t.Helper()
	rel, ok, err := e.Get(name)
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	if !ok {
		t.Fatalf("get %s: missing", name)
	}
	if rel.Len() != want {
		t.Fatalf("get %s: %d tuples, want %d", name, rel.Len(), want)
	}
	return rel
}

func checkpoint(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.CheckpointCommitted(1)
	return buf.Bytes()
}

func TestPagedRoundTrip(t *testing.T) {
	mem := fsx.NewMemFS()
	e := openDir(t, smallCfg(mem))
	e.Declare("R", kvT)
	rel := load(e, relation.New(kvT), 0, 100)
	got := wantTuples(t, e, "R", 100)
	if got != rel {
		t.Error("Get should return the published materialization pointer")
	}
	man := checkpoint(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDir(t, smallCfg(mem))
	if err := e2.LoadManifest(bytes.NewReader(man)); err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	got2 := wantTuples(t, e2, "R", 100)
	for k := 0; k < 100; k++ {
		if !got2.Contains(kv(k, fmt.Sprintf("value-%04d", k))) {
			t.Fatalf("tuple %d missing after reload", k)
		}
	}
	if typ, ok := e2.Type("R"); !ok || typ.Name != "kv" || len(typ.Key) != 1 {
		t.Errorf("type lost across manifest reload: %+v ok=%v", typ, ok)
	}
}

func TestPagedRejectsMemorySnapshot(t *testing.T) {
	e := openDir(t, smallCfg(fsx.NewMemFS()))
	err := e.LoadManifest(strings.NewReader("DBPLSTOR junk"))
	if err == nil || !strings.Contains(err.Error(), "memory engine") {
		t.Fatalf("want pointed memory-snapshot error, got %v", err)
	}
}

func TestPagedPageSizeMismatch(t *testing.T) {
	mem := fsx.NewMemFS()
	e := openDir(t, smallCfg(mem))
	e.Declare("R", kvT)
	load(e, relation.New(kvT), 0, 10)
	man := checkpoint(t, e)

	cfg := smallCfg(mem)
	cfg.PageSize = 256
	e2 := openDir(t, cfg)
	if err := e2.LoadManifest(bytes.NewReader(man)); err == nil || !strings.Contains(err.Error(), "page size") {
		t.Fatalf("want page-size mismatch error, got %v", err)
	}
}

// TestPagedBiggerThanPoolScan squeezes residency so only one relation's
// materialization stays resident at a time; alternating scans then decode
// through the pool, with far more pages than pool slots.
func TestPagedBiggerThanPoolScan(t *testing.T) {
	mem := fsx.NewMemFS()
	cfg := smallCfg(mem)
	cfg.ResidentBytes = 1 // only the most recently touched relation stays
	e := openDir(t, cfg)
	e.Declare("R", kvT)
	e.Declare("S", kvT)
	load(e, relation.New(kvT), 0, 500)
	var tuples []value.Tuple
	s := relation.New(kvT)
	for k := 0; k < 500; k++ {
		tup := kv(k, fmt.Sprintf("value-%04d", k))
		tuples = append(tuples, tup)
		if err := s.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishDelta("S", tuples, s)
	checkpoint(t, e)

	for scan := 0; scan < 3; scan++ {
		wantTuples(t, e, "R", 500)
		wantTuples(t, e, "S", 500)
	}
	st := e.Stats()
	if st.HeapSlots <= int64(st.PoolPages) {
		t.Fatalf("workload not bigger than pool: %d slots, pool %d", st.HeapSlots, st.PoolPages)
	}
	if st.Evictions == 0 {
		t.Errorf("expected pool evictions, stats: %+v", st)
	}
	if st.Overflows > 0 {
		t.Errorf("clean scans must not overflow the pool: %+v", st)
	}
	if st.PoolUsed > st.PoolPages {
		t.Errorf("pool over budget with nothing pinned: used %d cap %d", st.PoolUsed, st.PoolPages)
	}
	if st.MaterializedEvictions == 0 {
		t.Errorf("expected residency evictions, stats: %+v", st)
	}
}

// TestPagedShadowSlots: pages referenced by the committed manifest must
// survive later writes until the next commit — reloading the old manifest
// sees exactly the old content.
func TestPagedShadowSlots(t *testing.T) {
	mem := fsx.NewMemFS()
	e := openDir(t, smallCfg(mem))
	e.Declare("R", kvT)
	rel := load(e, relation.New(kvT), 0, 50)
	man1 := checkpoint(t, e)

	// Rewrite the relation wholesale and flush (second checkpoint written
	// but never committed — as if the WAL rename crashed).
	repl := relation.New(kvT)
	for k := 1000; k < 1050; k++ {
		if err := repl.Insert(kv(k, "replacement")); err != nil {
			t.Fatal(err)
		}
	}
	e.Publish("R", repl)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	_ = rel

	// The first manifest must still describe valid on-disk pages.
	e2 := openDir(t, smallCfg(mem))
	if err := e2.LoadManifest(bytes.NewReader(man1)); err != nil {
		t.Fatal(err)
	}
	got := wantTuples(t, e2, "R", 50)
	for k := 0; k < 50; k++ {
		if !got.Contains(kv(k, fmt.Sprintf("value-%04d", k))) {
			t.Fatalf("committed tuple %d clobbered by uncommitted writes", k)
		}
	}
}

// TestPagedIncrementalCheckpoint: after a big committed load, a small delta
// must checkpoint only the dirty tail, not the whole database.
func TestPagedIncrementalCheckpoint(t *testing.T) {
	mem := fsx.NewMemFS()
	cfg := smallCfg(mem)
	cfg.PoolPages = 64
	e := openDir(t, cfg)
	e.Declare("R", kvT)
	rel := load(e, relation.New(kvT), 0, 1000)
	checkpoint(t, e)
	full := e.Stats()

	load(e, rel, 1000, 1005)
	checkpoint(t, e)
	inc := e.Stats()
	if inc.LastCheckpointPages > 3 {
		t.Errorf("small delta flushed %d pages (first checkpoint: %d)",
			inc.LastCheckpointPages, full.LastCheckpointPages)
	}
	if full.LastCheckpointPages < 20 {
		t.Errorf("big load should have flushed many pages, got %d", full.LastCheckpointPages)
	}
}

// TestPagedWriteBackFault: a failed eviction write-back must not lose data —
// the pool overflows, the engine records the error, and the page stays
// readable from memory.
func TestPagedWriteBackFault(t *testing.T) {
	mem := fsx.NewMemFS()
	ff := fsx.NewFaultFS(mem)
	cfg := smallCfg(ff)
	cfg.ResidentBytes = 1
	e := openDir(t, cfg)
	e.Declare("R", kvT)
	load(e, relation.New(kvT), 0, 200)

	// Fail every write from here on: dirty pages become unevictable.
	n := ff.OpCount()
	var faults []fsx.Fault
	for i := n; i < n+10000; i++ {
		faults = append(faults, fsx.Fault{Index: i, Err: fsx.ErrInjected})
	}
	ff.Inject(faults...)

	// Appends keep succeeding in memory even though nothing can be flushed.
	rel := wantTuples(t, e, "R", 200)
	load(e, rel.Clone(), 200, 400)
	wantTuples(t, e, "R", 400)
	st := e.Stats()
	if st.LastErr == nil && st.Overflows == 0 {
		t.Errorf("expected recorded write faults or overflow, stats: %+v", st)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err == nil {
		t.Error("checkpoint against failing disk must fail")
	}
}

// TestPagedPublishReusesSlots: wholesale rewrites release their slots after
// commit, so steady-state rewrites don't grow the heap without bound.
func TestPagedPublishReusesSlots(t *testing.T) {
	mem := fsx.NewMemFS()
	e := openDir(t, smallCfg(mem))
	e.Declare("R", kvT)
	var high int64
	for round := 0; round < 10; round++ {
		rel := relation.New(kvT)
		for k := 0; k < 100; k++ {
			if err := rel.Insert(kv(k, fmt.Sprintf("round-%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		e.Publish("R", rel)
		checkpoint(t, e)
		st := e.Stats()
		if round == 1 {
			high = st.HeapSlots
		}
		if round > 1 && st.HeapSlots > 3*high {
			t.Fatalf("heap grows without slot reuse: %d slots at round %d (baseline %d)",
				st.HeapSlots, round, high)
		}
	}
}

// TestPagedConcurrentReaders hammers Get (with residency evictions forcing
// repeated materialization) against a writer publishing deltas. Run under
// -race; correctness assertion is that every observed relation is a
// consistent prefix of the insert sequence.
func TestPagedConcurrentReaders(t *testing.T) {
	mem := fsx.NewMemFS()
	cfg := smallCfg(mem)
	cfg.ResidentBytes = 1
	e := openDir(t, cfg)
	e.Declare("R", kvT)
	e.Declare("S", kvT)
	decoy := relation.New(kvT)
	for k := 0; k < 100; k++ {
		if err := decoy.Insert(kv(k, "decoy")); err != nil {
			t.Fatal(err)
		}
	}
	e.Publish("S", decoy)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, ok, err := e.Get("R")
				if err != nil || !ok {
					errc <- fmt.Errorf("reader: ok=%v err=%v", ok, err)
					return
				}
				n := rel.Len()
				for k := 0; k < n; k++ {
					if !rel.Contains(kv(k, fmt.Sprintf("value-%04d", k))) {
						errc <- fmt.Errorf("torn read: len %d missing key %d", n, k)
						return
					}
				}
				// Touching the decoy evicts R's materialization (residency
				// budget of one), so the next Get re-decodes pages while the
				// writer appends.
				if _, ok, err := e.Get("S"); err != nil || !ok {
					errc <- fmt.Errorf("decoy reader: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
	}
	rel := relation.New(kvT)
	for k := 0; k < 300; k++ {
		rel = load(e, rel, k, k+1)
		if k%50 == 0 {
			var buf bytes.Buffer
			if err := e.WriteCheckpoint(&buf); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			e.CheckpointCommitted(uint64(k))
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	wantTuples(t, e, "R", 300)
}

// TestKeyIndexCollisions plants hash collisions in a cold table's key index
// so both probe branches run: a hash hit on a page that does not hold the key
// (the page is read and compared exactly, and the key is reported absent), and
// a hash marked scanAll (every page is searched, and the stored tuple found
// there decides duplicate versus conflict). Nothing is ever decoded whole,
// and materializing the table drops the index.
func TestKeyIndexCollisions(t *testing.T) {
	cfg := smallCfg(fsx.NewMemFS())
	cfg.ResidentBytes = 1
	e := openDir(t, cfg)
	e.Declare("R", kvT)
	e.Declare("S", kvT)
	load(e, relation.New(kvT), 0, 100)
	checkpoint(t, e)
	if _, ok, err := e.Get("S"); err != nil || !ok { // drops R's decoded value
		t.Fatalf("get S: %v", err)
	}
	mats := e.Stats().Materializations
	grow := func(tuples ...value.Tuple) []value.Tuple {
		t.Helper()
		added, next, err := e.Grow("R", tuples)
		if err != nil {
			t.Fatalf("grow %v: %v", tuples, err)
		}
		if next != nil {
			t.Fatal("a non-resident table grew a decoded value")
		}
		e.PublishDelta("R", added, nil)
		return added
	}
	if added := grow(kv(500, "new")); len(added) != 1 {
		t.Fatalf("fresh key: added %v", added)
	}
	ki := e.kidx
	if ki == nil || ki.t != e.rels["R"] || len(e.rels["R"].pages) < 3 {
		t.Fatalf("no key index over a multi-page R after a cold insert: %+v", ki)
	}
	hashOf := func(tup value.Tuple) uint64 {
		_, key, err := ki.encode(nil, nil, tup)
		if err != nil {
			t.Fatal(err)
		}
		return maphash.Bytes(e.seed, key)
	}

	// Page verify: an absent key whose hash points at page 0.
	absent := kv(1000, "absent")
	ki.pages[hashOf(absent)] = 0
	if added := grow(absent); len(added) != 1 {
		t.Fatalf("hash hit on a page without the key: added %v", added)
	}

	// Scan all: a stored key on the last page found by searching every page.
	stored := kv(99, "value-0099")
	ki.pages[hashOf(stored)] = scanAll
	if added := grow(stored); len(added) != 0 {
		t.Fatalf("duplicate behind scanAll: added %v", added)
	}
	_, _, err := e.Grow("R", []value.Tuple{kv(99, "other")})
	var kc *relation.KeyConflictError
	if !errors.As(err, &kc) || !kc.Existing.Equal(stored) {
		t.Fatalf("conflict behind scanAll: %v", err)
	}

	// Two stored keys on different pages sharing a hash mark it scanAll.
	ki.note(42, 0)
	ki.note(42, 0)
	if ki.pages[42] != 0 {
		t.Fatal("two keys on one page need no scan of every page")
	}
	ki.note(42, 1)
	if ki.pages[42] != scanAll {
		t.Fatal("keys on two pages sharing a hash must scan every page")
	}

	st := e.Stats()
	if st.KeyIndexBuilds != 1 || st.Materializations != mats || st.Tuples != 102 {
		t.Fatalf("cold growth: %+v", st)
	}
	wantTuples(t, e, "R", 102)
	if e.kidx != nil {
		t.Fatal("materializing R kept its key index")
	}
}
