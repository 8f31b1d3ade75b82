// dbpld serves a DBPL database over the wire protocol. In its default mode
// it is a primary: it recovers (or creates) a durable store, accepts client
// sessions — Exec, prepared queries, transactions,
// EXPLAIN — and publishes its committed write-ahead-log batches to FOLLOW
// subscribers. With -replica it is a read replica instead: it bootstraps
// from the primary's current snapshot, tails the replication stream, serves
// snapshot-consistent reads, and refuses writes.
//
// Usage:
//
//	dbpld -listen :7474 -path ./data          # durable primary
//	dbpld -listen :7474                       # memory-only primary
//	dbpld -listen :7475 -replica -primary host:7474
//	dbpld -token secret ...                   # require the token at handshake
//	dbpld -max-sessions 64                    # cap on concurrent sessions
//
// SIGINT/SIGTERM trigger a graceful drain: new work is refused, open
// transactions finish, and after -drain-timeout the rest is cut off.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	dbpl "repro"

	"repro/internal/server"
)

func main() {
	listen := flag.String("listen", ":7474", "address to serve on")
	path := flag.String("path", "", "durable store directory (primary only); empty = memory-only")
	syncMode := flag.String("sync", "always", "fsync policy for -path: always or never")
	poolPages := flag.Int("pool-pages", 0, "buffer-pool budget of -path in 4KiB pages (0 = unbounded residency)")
	token := flag.String("token", "", "require this auth token from every client")
	maxSessions := flag.Int("max-sessions", 0, "cap on concurrent sessions (0 = unlimited)")
	replica := flag.Bool("replica", false, "serve as a read replica tailing -primary")
	primary := flag.String("primary", "", "primary address to replicate from (with -replica)")
	parallel := flag.Int("parallel", 0, "equations a fixpoint round evaluates at once (0 = all CPUs, 1 = serial)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a graceful shutdown waits for open work")
	quiet := flag.Bool("quiet", false, "suppress connection-level diagnostics")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	if *replica {
		if *primary == "" {
			fmt.Fprintln(os.Stderr, "dbpld: -replica requires -primary host:port")
			os.Exit(2)
		}
		if *path != "" {
			fmt.Fprintln(os.Stderr, "dbpld: -replica is memory-only (the primary owns durability); drop -path")
			os.Exit(2)
		}
	}

	var opts []dbpl.Option
	if *path != "" {
		sp := dbpl.SyncAlways
		switch *syncMode {
		case "always":
		case "never":
			sp = dbpl.SyncNever
		default:
			fmt.Fprintf(os.Stderr, "dbpld: unknown -sync policy %q (want always or never)\n", *syncMode)
			os.Exit(2)
		}
		opts = append(opts, dbpl.WithPath(*path), dbpl.WithSync(sp), dbpl.WithBufferPoolPages(*poolPages))
	}
	opts = append(opts, dbpl.WithParallelism(*parallel))
	db, err := dbpl.Open(opts...)
	if err != nil {
		logger.Fatalf("dbpld: opening database: %v", err)
	}
	defer db.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srvOpts := server.Options{
		MaxSessions: *maxSessions,
		AuthToken:   *token,
		Logf:        logf,
	}
	if *replica {
		rep := server.NewReplica(db, *primary, *token, logf)
		srvOpts.Replica = rep
		go rep.Run(ctx) //nolint:errcheck // exits with ctx at shutdown
	}
	srv := server.New(db, srvOpts)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("dbpld: %v", err)
	}
	role := "primary"
	if *replica {
		role = fmt.Sprintf("replica of %s", *primary)
	}
	logf("dbpld: serving as %s on %s", role, l.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			logger.Fatalf("dbpld: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		logf("dbpld: draining (up to %s)...", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logf("dbpld: drain deadline hit; cut remaining sessions")
		}
		<-serveErr
	}
	logf("dbpld: bye")
}
