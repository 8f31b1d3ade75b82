// dbplc compiles and runs DBPL modules: it parses, type-checks (including
// the positivity analysis of section 3.3), reports the compilation plan of
// section 4 (component partition, recursion analysis, per-statement
// strategy), and executes the module's statements. Run with no file (or with
// -repl) it drops into an interactive session with an :explain command that
// prints the optimizer's text plan for a query.
//
// With -connect the same REPL (and file execution) runs against a dbpld
// server instead of an embedded database — modules, queries, :explain, and
// :analyze all travel over the wire, and :health reports the server's
// durability and replication state.
//
// Execution goes through the session API, so an interrupt (Ctrl-C) or the
// -timeout flag aborts a runaway recursive constructor mid-fixpoint instead
// of leaving the process stuck.
//
// Usage:
//
//	dbplc file.dbpl             # compile and run
//	dbplc                       # interactive REPL
//	dbplc -repl file.dbpl       # run the file, then drop into the REPL
//	dbplc -check file.dbpl      # compile only, report the analysis
//	dbplc -graph file.dbpl      # print the augmented quant graph (DOT)
//	dbplc -lax file.dbpl        # admit non-positive constructors
//	dbplc -naive file.dbpl      # use the paper's naive fixpoint loop
//	dbplc -timeout 10s f.dbpl   # bound total execution time
//	dbplc -path dir f.dbpl      # durable store: recover dir, log mutations
//	dbplc -path dir -sync never # relax the fsync policy (process-crash safe)
//	dbplc -path dir -pool-pages 64 # bound the memory the pages may hold
//	dbplc -connect host:7474    # remote session against a dbpld server
//	dbplc -connect host:7474 -token secret f.dbpl
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"time"

	dbpl "repro"
	"repro/client"

	"repro/internal/compile"
)

// printAnalysis writes -check's report of a compiled module: one line per
// constructor in name order, then the partition, the recursive constructors
// and each statement's strategy.
func printAnalysis(w io.Writer, prog *compile.Program) {
	fmt.Fprintf(w, "module %s: OK\n", prog.Module.Name)
	for _, name := range slices.Sorted(maps.Keys(prog.Positivity)) {
		rep := prog.Positivity[name]
		fmt.Fprintf(w, "  constructor %-12s positive=%v occurrences=%d\n",
			name, rep.Positive(), len(rep.Occurrences))
	}
	fmt.Fprintf(w, "  components: %v\n", prog.Components)
	fmt.Fprintf(w, "  recursive:  %v\n", prog.Recursive)
	for i, plan := range prog.Plans {
		fmt.Fprintf(w, "  stmt %d: strategy=%s constructors=%v\n",
			i+1, plan.Strategy, plan.Constructors)
	}
}

// engine is the REPL's view of a database session, satisfied by both the
// embedded dbpl.DB and a remote client.DB, so every command works
// identically in either mode.
type engine interface {
	ExecContext(ctx context.Context, src string) (string, error)
	QueryText(ctx context.Context, src string) (string, error)
	ExplainText(ctx context.Context, src string, analyze bool) (string, error)
	Vars(ctx context.Context) ([]client.VarInfo, error)
	HealthText(ctx context.Context) (string, error)
	Close() error
}

func main() {
	checkOnly := flag.Bool("check", false, "compile only; print the analysis")
	graph := flag.Bool("graph", false, "print the augmented quant graph in DOT")
	lax := flag.Bool("lax", false, "admit non-positive constructors (section 3.3 escape hatch)")
	naive := flag.Bool("naive", false, "use the naive REPEAT..UNTIL fixpoint strategy")
	timeout := flag.Duration("timeout", 0, "abort execution after this duration (0 = no limit)")
	replFlag := flag.Bool("repl", false, "drop into an interactive session (after running the file, if given)")
	path := flag.String("path", "", "durable store directory: recover it on start, write-ahead log every mutation")
	syncMode := flag.String("sync", "always", "fsync policy for -path: always (machine-crash safe) or never (process-crash safe)")
	poolPages := flag.Int("pool-pages", 0, "buffer-pool budget of -path in 4KiB pages (0 = unbounded residency)")
	connect := flag.String("connect", "", "run against a dbpld server at this address instead of an embedded database")
	token := flag.String("token", "", "auth token for -connect")
	parallel := flag.Int("parallel", 0, "equations a fixpoint round evaluates at once (embedded mode; 0 = all CPUs, 1 = serial)")
	flag.Parse()

	interactive := *replFlag || flag.NArg() == 0
	if flag.NArg() > 1 || ((*checkOnly || *graph) && flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: dbplc [-check] [-graph] [-lax] [-naive] [-timeout d] [-repl] [-connect addr] [file.dbpl]")
		os.Exit(2)
	}
	if *connect != "" && (*checkOnly || *graph || *lax || *naive || *path != "") {
		fmt.Fprintln(os.Stderr, "dbplc: -connect is a pure client; -check, -graph, -lax, -naive, and -path need the embedded compiler")
		os.Exit(2)
	}
	var src []byte
	if flag.NArg() == 1 {
		var err error
		src, err = os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if (*graph || *checkOnly) && src != nil {
		prog, err := compile.Compile(string(src), compile.Options{Strict: !*lax})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
		if *graph {
			fmt.Print(prog.Graph.DOT())
			return
		}
		printAnalysis(os.Stdout, prog)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var eng engine
	if *connect != "" {
		c, err := client.Open(*connect, client.WithToken(*token))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "connected to %s (%s)\n", *connect, c.Role())
		eng = &remoteEngine{c: c}
	} else {
		mode := dbpl.SemiNaive
		if *naive {
			mode = dbpl.Naive
		}
		opts := []dbpl.Option{dbpl.WithStrict(!*lax), dbpl.WithMode(mode), dbpl.WithParallelism(*parallel)}
		if *path != "" {
			sp := dbpl.SyncAlways
			switch *syncMode {
			case "always":
			case "never":
				sp = dbpl.SyncNever
			default:
				fmt.Fprintf(os.Stderr, "unknown -sync policy %q (want always or never)\n", *syncMode)
				os.Exit(2)
			}
			opts = append(opts, dbpl.WithPath(*path), dbpl.WithSync(sp), dbpl.WithBufferPoolPages(*poolPages))
		}
		db, err := dbpl.Open(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng = &localEngine{db: db}
	}
	if src != nil {
		out, err := eng.ExecContext(ctx, string(src))
		fmt.Print(out)
		if err != nil {
			eng.Close()
			switch {
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(os.Stderr, "%s: interrupted\n", flag.Arg(0))
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(os.Stderr, "%s: timed out after %v\n", flag.Arg(0), *timeout)
			default:
				fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
			}
			os.Exit(1)
		}
	}
	if interactive {
		repl(eng, *timeout)
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// localEngine adapts the embedded session API.
type localEngine struct{ db *dbpl.DB }

func (l *localEngine) ExecContext(ctx context.Context, src string) (string, error) {
	return l.db.ExecContext(ctx, src)
}

func (l *localEngine) QueryText(ctx context.Context, src string) (string, error) {
	rows, err := l.db.QueryContext(ctx, src)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	return rows.Relation().String(), nil
}

func (l *localEngine) ExplainText(ctx context.Context, src string, analyze bool) (string, error) {
	var plan *dbpl.Plan
	var err error
	if analyze {
		plan, err = l.db.ExplainQuery(ctx, src)
	} else {
		plan, err = l.db.Explain(ctx, src)
	}
	if err != nil {
		return "", err
	}
	return plan.Text(), nil
}

func (l *localEngine) Vars(context.Context) ([]client.VarInfo, error) {
	var vars []client.VarInfo
	for _, name := range l.db.StoreSnapshot().Names() {
		if rel, ok := l.db.Relation(name); ok {
			vars = append(vars, client.VarInfo{Name: name, Tuples: rel.Len()})
		}
	}
	return vars, nil
}

func (l *localEngine) HealthText(context.Context) (string, error) {
	h := l.db.Health()
	s := fmt.Sprintf("embedded: durable=%v degraded=%v generation=%d tail=%d parallelism=%d",
		h.Durable, h.Degraded, h.Generation, h.TailRecords, l.db.Parallelism())
	if h.Cause != nil {
		s += fmt.Sprintf(" cause=%q", h.Cause)
	}
	s += matviewText(h.MatViews.Enabled, h.MatViews.Entries,
		h.MatViews.Hits, h.MatViews.Misses, h.MatViews.Maintained, h.MatViews.Backlog)
	if h.Storage.Enabled {
		s += " " + h.Storage.String()
	}
	return s, nil
}

// matviewText renders the materialized-view segment of a health line: entry
// count, hit rate over cacheable reads (hits plus incremental maintenance),
// and queued-delta backlog.
func matviewText(enabled bool, entries int, hits, misses, maintained uint64, backlog int) string {
	if !enabled {
		return " matview=off"
	}
	served := hits + maintained
	rate := "n/a"
	if total := served + misses; total > 0 {
		rate = fmt.Sprintf("%.0f%%", 100*float64(served)/float64(total))
	}
	return fmt.Sprintf(" matview entries=%d hit-rate=%s maintained=%d backlog=%d",
		entries, rate, maintained, backlog)
}

func (l *localEngine) Close() error { return l.db.Close() }

// remoteEngine adapts a dbpld connection.
type remoteEngine struct{ c *client.DB }

func (r *remoteEngine) ExecContext(ctx context.Context, src string) (string, error) {
	return r.c.ExecContext(ctx, src)
}

func (r *remoteEngine) QueryText(ctx context.Context, src string) (string, error) {
	rows, err := r.c.QueryContext(ctx, src)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	// Batches stream in store order; sort so remote output matches the
	// deterministic (sorted) rendering of local SHOW and query results.
	var tuples []string
	for rows.Next() {
		tuples = append(tuples, rows.Tuple().String())
	}
	if err := rows.Err(); err != nil {
		return "", err
	}
	sort.Strings(tuples)
	return "{" + strings.Join(tuples, ", ") + "}", nil
}

func (r *remoteEngine) ExplainText(ctx context.Context, src string, analyze bool) (string, error) {
	if analyze {
		return r.c.ExplainAnalyze(ctx, src)
	}
	return r.c.Explain(ctx, src)
}

func (r *remoteEngine) Vars(ctx context.Context) ([]client.VarInfo, error) {
	return r.c.Vars(ctx)
}

func (r *remoteEngine) HealthText(ctx context.Context) (string, error) {
	h, err := r.c.Health(ctx)
	if err != nil {
		return "", err
	}
	s := fmt.Sprintf("%s: durable=%v degraded=%v generation=%d tail=%d parallelism=%d",
		h.Role, h.Durable, h.Degraded, h.Generation, h.Tail, h.Parallelism)
	if h.Cause != "" {
		s += fmt.Sprintf(" cause=%q", h.Cause)
	}
	if h.Role == "replica" {
		s += fmt.Sprintf(" connected=%v applied=%d", h.Connected, h.Applied)
		if h.StreamErr != "" {
			s += fmt.Sprintf(" stream-error=%q", h.StreamErr)
		}
	}
	s += matviewText(h.MatEnabled, int(h.MatEntries), h.MatHits, h.MatMisses, h.MatMaintained, int(h.MatBacklog))
	return s, nil
}

func (r *remoteEngine) Close() error { return r.c.Close() }

const replHelp = `commands:
  :explain <query>   compile the query and print its text plan
  :analyze <query>   execute the query and print the plan with counters
  :show              list declared relation variables
  :health            durability / replication status of the session
  :help              this help
  :quit              exit
anything else:
  MODULE ... END m.  executed as a module (may span lines, ends with ".")
  <query>            evaluated and printed, e.g. Infront[hidden_by("table")]`

// repl reads commands, queries, and modules from stdin until EOF or :quit.
// Each command runs under its own signal/timeout context, so Ctrl-C (or
// -timeout) aborts the in-flight evaluation without ending the session.
func repl(eng engine, timeout time.Duration) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)

	// withCtx runs one command under a fresh interrupt/timeout context.
	withCtx := func(fn func(ctx context.Context) error) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if err := fn(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	var module strings.Builder
	execModule := func() {
		src := module.String()
		module.Reset()
		withCtx(func(ctx context.Context) error {
			out, err := eng.ExecContext(ctx, src)
			fmt.Print(out)
			return err
		})
	}
	prompt := func() {
		if module.Len() > 0 {
			fmt.Print("  ... ")
		} else {
			fmt.Print("dbpl> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case module.Len() > 0 || strings.HasPrefix(strings.ToUpper(trimmed), "MODULE"):
			module.WriteString(line)
			module.WriteByte('\n')
			// A module ends with "END <name>." — possibly on the same line
			// it started on.
			if strings.HasSuffix(trimmed, ".") {
				execModule()
			}
		case trimmed == "":
		case trimmed == ":quit" || trimmed == ":q" || trimmed == ":exit":
			return
		case trimmed == ":help" || trimmed == ":h":
			fmt.Println(replHelp)
		case trimmed == ":show":
			withCtx(func(ctx context.Context) error {
				vars, err := eng.Vars(ctx)
				if err != nil {
					return err
				}
				for _, v := range vars {
					fmt.Printf("%s: %d tuple(s)\n", v.Name, v.Tuples)
				}
				return nil
			})
		case trimmed == ":health":
			withCtx(func(ctx context.Context) error {
				s, err := eng.HealthText(ctx)
				if err != nil {
					return err
				}
				fmt.Println(s)
				return nil
			})
		case strings.HasPrefix(trimmed, ":explain "):
			withCtx(func(ctx context.Context) error {
				text, err := eng.ExplainText(ctx, strings.TrimSpace(strings.TrimPrefix(trimmed, ":explain")), false)
				if err != nil {
					return err
				}
				fmt.Print(text)
				return nil
			})
		case strings.HasPrefix(trimmed, ":analyze "):
			withCtx(func(ctx context.Context) error {
				text, err := eng.ExplainText(ctx, strings.TrimSpace(strings.TrimPrefix(trimmed, ":analyze")), true)
				if err != nil {
					return err
				}
				fmt.Print(text)
				return nil
			})
		case strings.HasPrefix(trimmed, ":"):
			fmt.Fprintf(os.Stderr, "unknown command %s (:help lists commands)\n", trimmed)
		default:
			withCtx(func(ctx context.Context) error {
				text, err := eng.QueryText(ctx, trimmed)
				if err != nil {
					return err
				}
				fmt.Println(text)
				return nil
			})
		}
		prompt()
	}
}
