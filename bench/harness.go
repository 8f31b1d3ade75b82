package main

// The run harness: repeated set-up, a discarded warm-up round, equal measured
// rounds of a fixed cycle count, and the per-round values every reported
// number is the median of.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	dbpl "repro"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string // directory for data files and trace output
	cycles   int    // cycles per round; 0 derives it from seconds
}

const (
	// procs is GOMAXPROCS and the DB's executor parallelism during a run.
	procs          = 1
	measuredRounds = 5
	// roundShare is the part of -seconds one round is sized to fill: a
	// warm-up round plus the measured rounds make up the measured phase.
	roundShare   = 1.0 / (measuredRounds + 1)
	setupRepeats = 3
)

// workload is one of the four scenarios. setup builds a fresh, warmed
// instance; round runs cycles [first, first+n) of the deterministic op
// schedule; verify compares full result fingerprints with the reference
// (untimed, between rounds); probes fills the per-layer metrics after the
// traced rounds.
type workload interface {
	setup(ctx context.Context) error
	round(ctx context.Context, first, n int)
	verify(ctx context.Context) error
	probes(ctx context.Context, m map[string]float64) error
	// digest folds the op schedule and the reference answers so far, so two
	// same-seed runs can be compared.
	digest() uint64
	close() error
}

// base is the state every workload shares.
type base struct {
	seed int64
	rec  *recorder
	tr   *tracer // nil unless this is the traced pass
	ln   *lane   // the main goroutine's lane; nil when tr is nil
	dir  string  // this instance's data directory
	mv   mvCount // matview read outcomes inside the rounds
}

// mvCount accumulates the matview cache's counters over the rounds only, so
// the untimed verification reads between rounds (always hits) stay out of the
// hit ratio.
type mvCount struct{ hits, misses, maintained, invalidations uint64 }

func (c *mvCount) add(before, after dbpl.MatViewStats) {
	c.hits += after.Hits - before.Hits
	c.misses += after.Misses - before.Misses
	c.maintained += after.Maintained - before.Maintained
	c.invalidations += after.Invalidations - before.Invalidations
}

// span runs fn inside a span on the main lane.
func (b *base) span(name string, fn func()) {
	b.ln.begin(name)
	fn()
	b.ln.end()
}

// open opens a database with the workload's options under an "open" span and
// declares its schema (declarations other than variables are not persisted,
// so a reopen declares again).
func (b *base) open(schema string, opts ...dbpl.Option) (*dbpl.DB, error) {
	var db *dbpl.DB
	var err error
	b.span("open", func() { db, err = dbpl.Open(append(opts, dbpl.WithParallelism(procs))...) })
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(schema); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// closeDB closes *db under a "close" span and clears it; closing twice is a
// no-op.
func (b *base) closeDB(db **dbpl.DB) error {
	if *db == nil {
		return nil
	}
	var err error
	b.span("close", func() { err = (*db).Close() })
	*db = nil
	return err
}

// iterate walks a whole result under a "rows.iterate" span and counts it.
func (b *base) iterate(rel *dbpl.Relation) int {
	n := 0
	b.span("rows.iterate", func() {
		rel.Each(func(dbpl.Tuple) bool { n++; return true })
	})
	return n
}

// recorder collects per-class latency samples and the op counts of the
// current round. It is shared by the connections of served_oltp, hence the
// mutex; an op is at least 0.2 ms, so the lock is noise. Its pacer is driven
// by one goroutine only: the workload's cycle loop (connection 0 in
// served_oltp).
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // class → latencies in ms
	attempted int
	failed    int
	errs      []string
	pacer
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

// op times one operation of a class. fn returns the rows it saw; a returned
// error or a row count other than want is a failed op.
func (r *recorder) op(ln *lane, class string, want int, fn func() (int, error)) {
	ln.begin("op." + class)
	t0 := time.Now()
	got, err := fn()
	ms := float64(time.Since(t0)) / 1e6
	ln.end()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[class] = append(r.lat[class], ms)
	r.attempted++
	switch {
	case err != nil:
		r.fail(fmt.Sprintf("%s: %v", class, err))
	case got != want:
		r.fail(fmt.Sprintf("%s: got %d rows, want %d", class, got, want))
	}
}

// fail counts a failed op; callers hold r.mu.
func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// check records the outcome of an untimed verification as one attempted op.
func (r *recorder) check(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(what + ": " + err.Error())
	}
}

// takeRound returns and clears the current round's samples and its op count.
func (r *recorder) takeRound(prevAttempted int) (lat map[string][]float64, ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lat, r.lat = r.lat, make(map[string][]float64)
	return lat, r.attempted - prevAttempted
}

// roundStats is what one round measured: op count, wall and CPU seconds
// (probes excluded), the latencies per class in ms, and the mean reference
// probe time while it ran.
type roundStats struct {
	traced      bool
	ops         int
	wallS, cpuS float64
	speedMs     float64
	lat         map[string][]float64
}

// atReference is the factor that takes the round's times to reference
// machine speed.
func (r roundStats) atReference() float64 { return refNominalMs / r.speedMs }

// The gated values of a round, scaled by k (1 gives the raw measurement).
func (r roundStats) opsPerS(k float64) float64    { return float64(r.ops) / (r.wallS * k) }
func (r roundStats) cpuMsPerOp(k float64) float64 { return 1e3 * r.cpuS * k / float64(r.ops) }
func (r roundStats) p50(class string, k float64) float64 {
	return median(r.lat[class]) * k
}

// reported is one metric value with what it rests on.
type reported struct {
	def      metricDef
	value    float64
	raw      float64   // time metrics: the median of the unscaled per-round values
	samples  int       // latency samples or set-ups behind the value
	perRound []float64 // the per-round values the median was taken over
}

// spread is (max-min)/median of the per-round values.
func (m reported) spread() float64 {
	if len(m.perRound) == 0 || m.value == 0 {
		return 0
	}
	lo, hi := m.perRound[0], m.perRound[0]
	for _, v := range m.perRound {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m.value
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	errs      []string
	metrics   []reported
	nproc     int
	cycles    int // per round
	phaseS    float64
	speeds    []float64 // per measured round: mean reference probe time, ms
	schedule  uint64    // the workload's digest after the last round
	traceFile string    // where the traced pass wrote its spans
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of xs; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// runWorkload runs one workload in this process and reports its metrics:
// the end-to-end ones with tracing off, or the per-layer ones from a traced
// pass.
func runWorkload(ctx context.Context, cfg config) (*report, error) {
	sc, ok := scales[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.quick {
		sc = sc.quick()
	}
	cycles := cfg.cycles
	if cycles <= 0 {
		cycles = sc.cycles(cfg.seconds)
	}
	// One P: the two vCPUs of the seed machine are sibling hyperthreads, so a
	// second P slows the first and the reference probe (pace.go) would then
	// measure the program's own load instead of the machine's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep := &report{workload: cfg.workload, traced: cfg.trace, nproc: runtime.NumCPU(), cycles: cycles}

	rec := newRecorder()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := filepath.Join(cfg.out, fmt.Sprintf("data-%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(root)

	// Set-up, repeated on fresh directories so that setup_s is a median; the
	// last instance is the one measured. The traced pass reports no setup_s
	// and sets up once.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var w workload
	var setups, setupsRaw []float64
	for i := 0; i < repeats; i++ {
		b := base{seed: cfg.seed, rec: rec, tr: tr, ln: tr.lane(),
			dir: filepath.Join(root, fmt.Sprintf("setup-%d", i))}
		if err := os.MkdirAll(b.dir, 0o755); err != nil {
			return nil, err
		}
		w = newWorkload(cfg.workload, b, sc)
		runtime.GC()
		rec.begin()
		err := w.setup(ctx)
		wallS, _, speedMs := rec.end()
		setupsRaw = append(setupsRaw, wallS)
		setups = append(setups, wallS*refNominalMs/speedMs)
		if err == nil && i < repeats-1 {
			err = w.close()
		}
		if err != nil {
			_ = w.close()
			return nil, fmt.Errorf("%s: set-up %d: %w", cfg.workload, i, err)
		}
	}
	rounds, before, after := measure(ctx, cfg, w, rec, tr, rep)
	var err error
	if cfg.trace {
		err = tracedReport(ctx, cfg, w, tr, rep, rounds, before, after, root)
	} else {
		rep.metrics = endToEnd(setups, setupsRaw, rounds, float64(after.HeapAlloc)/1e6)
	}
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", cfg.workload, cerr)
	}
	rep.attempted, rep.failed, rep.errs = rec.attempted, rec.failed, rec.errs
	return rep, err
}

// measure runs the measured phase on a set-up workload: a discarded warm-up
// round, then equal rounds, each followed by an untimed full verification.
// The traced pass alternates untraced and traced rounds so the overhead ratio
// compares neighbours. It returns the rounds and the memory statistics taken
// after the warm-up and after the last round.
func measure(ctx context.Context, cfg config, w workload, rec *recorder, tr *tracer, rep *report) (rounds []roundStats, before, after runtime.MemStats) {
	plan := make([]bool, measuredRounds)
	if cfg.trace {
		plan = []bool{false, true, true, false, false, true}
	}
	// From here on garbage is collected only between cycles (pace.go).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rec.collect = true
	phase := time.Now()
	for i := -1; i < len(plan); i++ {
		traced := i >= 0 && plan[i]
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		tr.enable(traced)
		attempted := rec.attempted
		rec.begin()
		w.round(ctx, (i+1)*rep.cycles, rep.cycles)
		wallS, cpuS, speedMs := rec.end()
		lat, ops := rec.takeRound(attempted)
		tr.enable(false)
		rec.check("verify", w.verify(ctx))
		if i >= 0 {
			rounds = append(rounds, roundStats{traced: traced, ops: ops, wallS: wallS, cpuS: cpuS, speedMs: speedMs, lat: lat})
			rep.speeds = append(rep.speeds, speedMs)
		}
	}
	rep.phaseS = time.Since(phase).Seconds()
	rep.schedule = w.digest()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return rounds, before, after
}

// tracedReport fills the report of a traced pass: the per-layer metrics, and
// the spans written to out/trace-<workload>.json.
func tracedReport(ctx context.Context, cfg config, w workload, tr *tracer, rep *report, rounds []roundStats, before, after runtime.MemStats, root string) error {
	tr.enable(true)
	layers, err := layerMetrics(ctx, w, tr, rounds, before, after, cfg.quick)
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", cfg.workload, err)
	}
	layers["proc.disk_mb"] = float64(dirBytes(root)) / 1e6
	for _, d := range perLayerDefs {
		rep.metrics = append(rep.metrics, reported{def: d, value: layers[d.Name]})
	}
	spans := tr.all()
	rep.traceFile = filepath.Join(cfg.out, "trace-"+cfg.workload+".json")
	return writeTrace(rep.traceFile, traceFile{Workload: cfg.workload, Seed: cfg.seed, ByName: summarize(spans), Layers: layers, Spans: spans})
}

// endToEnd reduces the set-ups and the measured rounds to the six gated
// metrics: each time metric is the median of its per-round (per-set-up)
// values at reference machine speed, and keeps the median of the unscaled
// ones as raw.
func endToEnd(setups, setupsRaw []float64, rounds []roundStats, heapMB float64) []reported {
	timed := func(f func(r roundStats, k float64) float64, samples int) reported {
		m := reported{samples: samples}
		raw := make([]float64, len(rounds))
		for i, r := range rounds {
			m.perRound = append(m.perRound, f(r, r.atReference()))
			raw[i] = f(r, 1)
		}
		m.raw = median(raw)
		return m
	}
	latency := func(class string) reported {
		n := 0
		for _, r := range rounds {
			n += len(r.lat[class])
		}
		return timed(func(r roundStats, k float64) float64 { return r.p50(class, k) }, n)
	}
	ops := 0
	for _, r := range rounds {
		ops += r.ops
	}
	vals := map[string]reported{
		"setup_s":       {samples: len(setups), raw: median(setupsRaw), perRound: setups},
		"read_ms_p50":   latency("read"),
		"write_ms_p50":  latency("write"),
		"ops_per_s":     timed(roundStats.opsPerS, ops),
		"cpu_ms_per_op": timed(roundStats.cpuMsPerOp, ops),
		"heap_live_mb":  {value: heapMB},
	}
	out := make([]reported, 0, len(endToEndDefs))
	for _, d := range endToEndDefs {
		m := vals[d.Name]
		m.def = d
		if len(m.perRound) > 0 {
			m.value = median(m.perRound)
		}
		out = append(out, m)
	}
	return out
}

// reopen finishes a durable set-up the way a restart would: checkpoint, close,
// and open the same directory again. It returns the recovered handle and the
// time the reopen took in ms.
func reopen(b *base, db *dbpl.DB, open func() (*dbpl.DB, error)) (*dbpl.DB, float64, error) {
	var err error
	b.span("checkpoint", func() { err = db.Checkpoint() })
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	b.span("close", func() { err = db.Close() })
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	db, err = open()
	return db, float64(time.Since(t0)) / 1e6, err
}
