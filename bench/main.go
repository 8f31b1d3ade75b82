// Command bench is the gating benchmark of the dbpl reproduction: four
// closed-loop workloads, six end-to-end metrics each, and a traced pass that
// reports per-layer metrics. See README.md in this directory.
//
//	bash bench/run.sh                          # all four workloads, untraced
//	bash bench/run.sh -workload paged_cold     # one workload
//	bash bench/run.sh -trace 1                 # traced pass: per-layer metrics
//	bash bench/run.sh -selfcheck 5             # repeat the suite, check spreads
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a wrong result, a failed
// operation or a traced pass whose overhead ratio falls below 0.8 exits
// non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// scale is the sizing of one workload. The full sizes are what the gate
// measures; quick shrinks the data so the tests finish in seconds.
type scale struct {
	// cyclesPerS is the cycle rate rounds are sized for, so that the measured
	// phase lasts about -seconds: the seed machine's rate when it is slow, so
	// that 92 driver runs fit their time cap then too. It sets a fixed op
	// count, never a deadline.
	cyclesPerS float64
	// period is the length in cycles of the workload's slowest periodic work
	// (secondary op classes, checkpoints). A round is a whole number of
	// periods, so every round holds the same ops and the same checkpoints.
	period int
	// warmCycles run inside set-up: the first execution of every op class.
	warmCycles int

	dagLayers, dagWidth, dagDeg int // closure_scan: layered DAG
	parts, kinds                int // closure_scan: CAD scene for the join
	branching, depth            int // live_maintain: complete tree
	tuples, locs                int // stock relations: rows and locations
	archive                     int // paged_cold: rows of the cold Archive relation
	loadBatch, writeBatch       int // tuples per load Insert / per designated write
	poolPages                   int // paged_cold: buffer pool budget
}

var scales = map[string]scale{
	"closure_scan":  {cyclesPerS: 19, period: 4, warmCycles: 40, dagLayers: 5, dagWidth: 450, dagDeg: 2, parts: 3000, kinds: 200},
	"live_maintain": {cyclesPerS: 5, period: 8, warmCycles: 4, branching: 18, depth: 4, writeBatch: 64},
	"served_oltp":   {cyclesPerS: 60, period: 192, warmCycles: 1, tuples: 350_000, locs: 1750, loadBatch: 2000, writeBatch: 32},
	"paged_cold":    {cyclesPerS: 5, period: 8, tuples: 100_000, archive: 400_000, locs: 500, loadBatch: 5000, writeBatch: 16, poolPages: 64},
}

// cycles is the number of cycles in one round sized for a measured phase of
// the given length: a whole number of periods, at least one.
func (s scale) cycles(seconds float64) int {
	periods := math.Round(s.cyclesPerS * seconds * roundShare / float64(s.period))
	return s.period * max(1, int(periods))
}

// quick returns the test-sized variant: same shapes, same code paths, data
// small enough that a whole run takes about a second.
func (s scale) quick() scale {
	q := s
	q.dagWidth, q.parts, q.kinds = 40, 200, 20
	q.period, q.warmCycles = min(s.period, 4), min(s.warmCycles, 2)
	q.branching, q.depth = 6, 3
	if s.tuples > 0 {
		q.tuples, q.locs, q.loadBatch = 6000, 30, 1000
		q.archive = min(s.archive, 2000)
	}
	if s.poolPages > 0 {
		q.poolPages = 8
	}
	return q
}

func newWorkload(name string, b base, sc scale) workload {
	switch name {
	case "closure_scan":
		return &closureScan{base: b, sc: sc}
	case "live_maintain":
		return &liveMaintain{base: b, sc: sc}
	case "served_oltp":
		return &servedOLTP{base: b, sc: sc}
	default:
		return &pagedCold{base: b, sc: sc}
	}
}

// metricJSON is one value of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line a single-workload run prints.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) result() resultJSON {
	out := resultJSON{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.def.Name] = metricJSON{Value: m.value, Unit: m.def.Unit}
	}
	return out
}

// print writes the human-readable table of one run.
func (r *report) print() {
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s)  nproc=%d procs=%d cycles/round=%d measured_phase_s=%.1f\n",
		r.workload, pass, r.nproc, procs, r.cycles, r.phaseS)
	fmt.Printf("%-14s reference probe per round, ms: %.3f (nominal %.2f)\n", r.workload, r.speeds, refNominalMs)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-14s %-36s %14.4f %-5s", r.workload, m.def.Name, m.value, m.def.Unit)
		if m.raw != 0 {
			line += fmt.Sprintf("  raw=%-10.5g", m.raw)
		}
		if len(m.perRound) > 0 {
			line += fmt.Sprintf("  n=%-5d spread=%5.1f%%  per-round=%s", m.samples, 100*m.spread(), fmtFloats(m.perRound))
		}
		fmt.Println(line)
	}
	fmt.Printf("%-14s ops_attempted=%d ops_failed=%d\n", r.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("%-14s FAILED %s\n", r.workload, e)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func main() {
	var cfg config
	var trace int
	var selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all four, each in a fresh process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length the measured phase is sized for; sets the fixed op counts")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "test-sized data (not comparable with gated numbers)")
	flag.StringVar(&cfg.out, "out", "out", "directory for data files and trace-<workload>.json")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run the whole suite N times and check every end-to-end range against its bound")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case selfcheck > 0:
		os.Exit(runSelfcheck(cfg, selfcheck))
	case cfg.workload == "":
		os.Exit(runSuite(cfg))
	}
	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	rep.print()
	if cfg.trace {
		fmt.Printf("%-14s trace written to %s\n", rep.workload, rep.traceFile)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild runs one workload in a fresh process of this same binary, passing
// its output through, and returns the parsed result line.
func runChild(cfg config, workload string) (resultJSON, error) {
	self, err := os.Executable()
	if err != nil {
		return resultJSON{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.out}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if err != nil {
		fmt.Println(lines[len(lines)-1])
		return resultJSON{}, fmt.Errorf("%s: %w", workload, err)
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return resultJSON{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runSuite runs the four workloads, each in its own fresh process, and prints
// a summary that claims nothing.
func runSuite(cfg config) int {
	summary := struct {
		Seed      int64                            `json:"seed"`
		Traced    bool                             `json:"traced"`
		Attempted int                              `json:"ops_attempted"`
		Failed    int                              `json:"ops_failed"`
		Workloads map[string]map[string]metricJSON `json:"workloads"`
		Claim     any                              `json:"claim"`
	}{Seed: cfg.seed, Traced: cfg.trace, Workloads: map[string]map[string]metricJSON{}}
	code := 0
	for _, w := range workloadDefs {
		res, err := runChild(cfg, w.Name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		summary.Workloads[w.Name] = res.Metrics
	}
	raw, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
	return code
}
