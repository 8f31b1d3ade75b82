package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON keeps the names, units, directions and
// bounds the benchmark emits in step with the contract file the driver reads.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if !reflect.DeepEqual(b.Workloads, workloadDefs) {
		t.Errorf("workloads differ from workloadDefs:\n%+v\n%+v", b.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%+v\n%+v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	for _, w := range b.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := scales[w.Name]; !ok {
			t.Errorf("workload %s has no scale", w.Name)
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// quickRun runs one workload at test scale in this process.
func quickRun(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := runWorkload(context.Background(), config{
		workload: name, seed: seed, trace: trace, quick: true, cycles: 4, out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, trace, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s (trace=%v): %d of %d ops failed: %v", name, trace, rep.failed, rep.attempted, rep.errs)
	}
	return rep
}

// emitted checks that a report carries exactly the catalogue's metrics, each
// once, with its unit, and returns the values by name.
func emitted(t *testing.T, rep *report, defs []metricDef) map[string]float64 {
	t.Helper()
	res := rep.result()
	if len(rep.metrics) != len(defs) || len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics reported (%d distinct), catalogue has %d",
			rep.workload, len(rep.metrics), len(res.Metrics), len(defs))
	}
	vals := make(map[string]float64, len(defs))
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Fatalf("%s: metric %s not emitted", rep.workload, d.Name)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", rep.workload, d.Name, m.Unit, d.Unit)
		}
		vals[d.Name] = m.Value
	}
	return vals
}

// exactCounts are the program counts that must repeat exactly under one seed.
var exactCounts = []string{
	"fixpoint.rounds", "fixpoint.evaluations", "fixpoint.max_delta",
	"matview.hit_ratio", "matview.maintained", "matview.misses", "matview.invalidations",
	"matview.backlog_max", "matview.maintain_delta_rows", "matview.maintain_rounds",
	"eval.partition_lookups", "eval.scans", "eval.rows_in_per_row_out",
	"optimizer.passes_applied", "optimizer.magic_applied",
	"pagestore.misses_per_read", "pagestore.evictions_per_read", "pagestore.heap_slots",
	"store.snapshot_bytes",
}

func TestQuickSuite(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, w := range workloadDefs {
		e2e := emitted(t, quickRun(t, w.Name, 7, false), endToEndDefs)
		for name, v := range e2e {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v)
			}
		}

		a, b := quickRun(t, w.Name, 7, true), quickRun(t, w.Name, 7, true)
		la, lb := emitted(t, a, perLayerDefs), emitted(t, b, perLayerDefs)
		layers[w.Name] = la
		if a.schedule != b.schedule || a.attempted != b.attempted {
			t.Errorf("%s: same seed, different op schedules: digest %x/%x, attempted %d/%d",
				w.Name, a.schedule, b.schedule, a.attempted, b.attempted)
		}
		for _, name := range exactCounts {
			// On paged_cold the analyzed Stock[at(x)] scans or uses a
			// partition depending on the engine's map order — the reason
			// the workload's designated read is not that query.
			if w.Name == "paged_cold" && strings.HasPrefix(name, "eval.") {
				continue
			}
			if la[name] != lb[name] {
				t.Errorf("%s: %s does not repeat under one seed: %v then %v", w.Name, name, la[name], lb[name])
			}
		}
		if c := quickRun(t, w.Name, 8, true); c.schedule == a.schedule {
			t.Errorf("%s: seeds 7 and 8 produced the same op schedule", w.Name)
		}
		if _, err := os.Stat(a.traceFile); err != nil {
			t.Errorf("%s: traced pass wrote no trace file: %v", w.Name, err)
		}
	}

	// Bypass predictions: the layer a workload is built to avoid stays idle.
	if got := layers["closure_scan"]["matview.hit_ratio"]; got != 0 {
		t.Errorf("closure_scan: matview.hit_ratio = %v, predicted 0 (every read follows an overwrite)", got)
	}
	if got := layers["live_maintain"]["matview.hit_ratio"]; got < 0.99 {
		t.Errorf("live_maintain: matview.hit_ratio = %v, predicted >= 0.99", got)
	}
	if got := layers["live_maintain"]["matview.maintained"]; got == 0 {
		t.Errorf("live_maintain: no read was served by maintenance")
	}
	if got := layers["paged_cold"]["pagestore.misses_per_read"]; got == 0 {
		t.Errorf("paged_cold: reads cause no page misses; the workload fits the pool")
	}
	for _, w := range workloadDefs {
		for name, v := range layers[w.Name] {
			layer := name[:strings.Index(name, ".")]
			idle := (layer == "pagestore" && w.Name != "paged_cold") ||
				((layer == "wire" || layer == "server") && w.Name != "served_oltp")
			if idle && v != 0 {
				t.Errorf("%s: %s = %v, predicted 0 (the workload bypasses %s)", w.Name, name, v, layer)
			}
		}
	}
}

// TestReferenceModels checks the generator's own arithmetic on inputs small
// enough to enumerate by hand.
func TestReferenceModels(t *testing.T) {
	// Three layers of two nodes; duplicate slots (1→3 twice, 2→4 twice)
	// collapse, as they do in the edge relation.
	g := &dag{layers: 3, width: 2, deg: 2, names: make([]string, 6), hashes: make([]uint64, 6),
		succ: [][]int32{{2, 3}, {3, 3}, {4, 4}, {4, 5}, nil, nil}}
	c := g.closure()
	// reach: 0→{2,3,4,5} 1→{3,4,5} 2→{4} 3→{4,5}
	if c.rows != 4+3+1+2 {
		t.Errorf("dag closure has %d rows, want 10", c.rows)
	}
	if c.reachable(1) != 3 || c.reachable(4) != 0 {
		t.Errorf("reachable(1)=%d reachable(4)=%d, want 3 and 0", c.reachable(1), c.reachable(4))
	}
	if f := c.fingerprint(g); f.rows != c.rows {
		t.Errorf("fingerprint covers %d rows, closure has %d", f.rows, c.rows)
	}

	tr, edges := newTree(2, 2) // 1 + 2 + 4 nodes
	if len(edges) != 6 || tr.closure.rows != 2*1+4*2 {
		t.Errorf("tree: %d edges, %d closure rows; want 6 and 10", len(edges), tr.closure.rows)
	}
	tr.push(3) // a new leaf at depth 3 adds 3 ancestor pairs
	if tr.closure.rows != 13 || tr.below[0] != 7 || tr.below[1] != 3 {
		t.Errorf("after push: closure %d, below(root) %d, below(1) %d; want 13, 7, 3",
			tr.closure.rows, tr.below[0], tr.below[1])
	}

	if tupleHash("a", "b") == tupleHash("b", "a") {
		t.Error("tupleHash must be order-sensitive")
	}
}
