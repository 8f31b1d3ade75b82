package main

// The metric catalogue. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; TestCatalogueMatchesBenchmarkJSON keeps
// the two in step.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadDef names one workload and why it is in the suite.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"closure_scan", "in-memory layered DAG rewritten every cycle: optimizer, executor and semi-naive fixpoint do all the work; matview only misses, wal/pagestore/wire idle"},
	{"live_maintain", "durable insert-only tree growth with materialization on: matview maintenance, relation clone, store commit and WAL append dominate; the executor does O(delta)"},
	{"served_oltp", "2 loopback client connections, fsync'd commits, access-path reads: wire, server, client and the commit path dominate; eval and fixpoint are trivial"},
	{"paged_cold", "paged engine with a heap about 70x the 64-page pool: every read and write re-materialises through eviction; the only workload larger than the program's own cache"},
}

// endToEndDefs are the gated metrics, reported for every workload by the
// untraced pass: raw measured values, each the median of its per-round (for
// setup_s per-set-up) values. The bound is the share by which a metric may get
// worse before a change counts as a regression, and the range -selfcheck
// allows between same-seed runs. The time metrics carry the contract's
// ceiling, not the 0.10 the issue asked for: on the shared seed machine the
// same code at the same seed differs by more than a tenth between runs a few
// minutes apart (SPREAD.md), and the contract wants a bound to be three times
// the spread seen.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_ms_p50", "ms", "lower", 0.25},
	{"write_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayerDefs are the ungated metrics of single layers, reported for every
// workload by the traced pass (0 where the workload bypasses the layer). The
// prefix is the module the number belongs to.
var perLayerDefs = []metricDef{
	{"parser.parse_query_us", "us", "lower", 0},
	{"parser.parse_module_us", "us", "lower", 0},
	{"compile.prepare_us", "us", "lower", 0},
	{"optimizer.passes_applied", "count", "higher", 0},
	{"optimizer.magic_applied", "count", "higher", 0},

	{"eval.point_ms_p50", "ms", "lower", 0},
	{"eval.join_ms_p50", "ms", "lower", 0},
	{"eval.rows_in_per_row_out", "ratio", "lower", 0},
	{"eval.batches", "count", "lower", 0},
	{"eval.workers_max", "count", "higher", 0},
	{"eval.partition_lookups", "count", "higher", 0},
	{"eval.scans", "count", "lower", 0},

	{"fixpoint.rounds", "count", "lower", 0},
	{"fixpoint.evaluations", "count", "lower", 0},
	{"fixpoint.max_delta", "count", "lower", 0},

	{"matview.hit_ratio", "ratio", "higher", 0},
	{"matview.maintained", "count", "higher", 0},
	{"matview.misses", "count", "lower", 0},
	{"matview.invalidations", "count", "lower", 0},
	{"matview.backlog_max", "count", "lower", 0},
	{"matview.maintain_delta_rows", "count", "lower", 0},
	{"matview.maintain_rounds", "count", "lower", 0},

	{"accesspath.build_ms", "ms", "lower", 0},
	{"accesspath.lookup_us", "us", "lower", 0},
	{"accesspath.cached_paths", "count", "higher", 0},

	{"relation.clone_add_us", "us", "lower", 0},
	{"relation.index_build_ms", "ms", "lower", 0},
	{"relation.index_probe_ns", "ns", "lower", 0},
	{"relation.iterate_ns_per_row", "ns", "lower", 0},

	{"store.commit_us_p50", "us", "lower", 0},
	{"store.snapshot_save_ms", "ms", "lower", 0},
	{"store.snapshot_bytes", "B", "lower", 0},

	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.encode_batch_us", "us", "lower", 0},
	{"wal.sync_probe_ms", "ms", "lower", 0},
	{"wal.checkpoint_ms_p50", "ms", "lower", 0},
	{"wal.checkpoint_bytes", "B", "lower", 0},
	{"wal.recovery_ms", "ms", "lower", 0},
	{"wal.tail_records_max", "count", "lower", 0},

	{"pagestore.hit_ratio", "ratio", "higher", 0},
	{"pagestore.misses_per_read", "count", "lower", 0},
	{"pagestore.evictions_per_read", "count", "lower", 0},
	{"pagestore.write_backs", "count", "lower", 0},
	{"pagestore.overflows", "count", "lower", 0},
	{"pagestore.heap_slots", "count", "lower", 0},
	{"pagestore.pool_pages", "count", "higher", 0},
	{"pagestore.dirty_pages_max", "count", "lower", 0},
	{"pagestore.checkpoint_pages", "count", "lower", 0},
	{"pagestore.reopen_ms", "ms", "lower", 0},
	{"pagestore.disk_bytes_per_user_byte", "ratio", "lower", 0},

	{"wire.rtt_us_p50", "us", "lower", 0},
	{"wire.encode_rows_us", "us", "lower", 0},
	{"server.overhead_us_p50", "us", "lower", 0},

	{"proc.alloc_kb_per_op", "KB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.disk_mb", "MB", "lower", 0},
	{"proc.goroutines_end", "count", "lower", 0},
	{"tail.read_ms_p99", "ms", "lower", 0},
	{"tail.write_ms_p99", "ms", "lower", 0},
	{"tail.read_ms_max", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}
