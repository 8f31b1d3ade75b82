package dbpl_test

// Shutdown-path correctness: Rows.Close is idempotent in every cursor state,
// and DB.Close racing in-flight QueryContext streams must neither panic nor
// trip the race detector — queries hold their snapshot, so a cursor opened
// before Close keeps streaming while the log detaches underneath it.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	dbpl "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

func openSeeded(t *testing.T, opts ...dbpl.Option) *dbpl.DB {
	t.Helper()
	db, err := dbpl.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	typ := dbpl.RelationType{
		Name: "pair",
		Element: dbpl.RecordType{Attrs: []dbpl.Attribute{
			{Name: "x", Type: dbpl.StringType()},
			{Name: "y", Type: dbpl.StringType()},
		}},
		Key: []string{"x", "y"},
	}
	if err := db.Declare("E", typ); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("E",
		dbpl.NewTuple(dbpl.Str("a"), dbpl.Str("b")),
		dbpl.NewTuple(dbpl.Str("b"), dbpl.Str("c")),
		dbpl.NewTuple(dbpl.Str("c"), dbpl.Str("d")),
	); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRowsCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	db := openSeeded(t)

	t.Run("mid-iteration", func(t *testing.T) {
		rows, err := db.QueryContext(ctx, `E`)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal("empty cursor over a 3-tuple relation")
		}
		for i := 0; i < 3; i++ {
			if err := rows.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
		if rows.Next() {
			t.Fatal("Next returned true after Close")
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("Err after Close-mid-iteration: %v", err)
		}
	})

	t.Run("after-exhaustion", func(t *testing.T) {
		rows, err := db.QueryContext(ctx, `E`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			var x, y string
			if err := rows.Scan(&x, &y); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != 3 {
			t.Fatalf("streamed %d tuples, want 3", n)
		}
		// Exhaustion already closed the cursor; explicit Closes stay no-ops.
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("preserves-err", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		rows, err := db.QueryContext(cctx, `E`)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if rows.Next() {
			t.Fatal("Next returned true under a canceled context")
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", rows.Err())
		}
		// Close (repeated) must not clear the sticky error.
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(rows.Err(), context.Canceled) {
			t.Fatal("Close cleared the sticky iteration error")
		}
	})
}

// TestDBCloseRacesQueryContext closes a durable database while goroutines
// stream query cursors through it. Run under -race: cursors opened before
// Close keep streaming their snapshot; queries that lose the race fail
// cleanly or stream — they never panic and never observe partial state.
func TestDBCloseRacesQueryContext(t *testing.T) {
	ctx := context.Background()
	db := openSeeded(t, dbpl.WithPath(t.TempDir()))

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				rows, err := db.QueryContext(ctx, `E`)
				if err != nil {
					continue // lost the race to Close; acceptable
				}
				n := 0
				for rows.Next() {
					var x, y string
					if err := rows.Scan(&x, &y); err != nil {
						t.Errorf("Scan during shutdown: %v", err)
						break
					}
					n++
				}
				if err := rows.Err(); err != nil {
					t.Errorf("iteration error during shutdown: %v", err)
				}
				if n != 3 {
					t.Errorf("cursor streamed %d of 3 tuples: snapshots must stay whole through Close", n)
				}
				if err := rows.Close(); err != nil {
					t.Errorf("Close during shutdown: %v", err)
				}
			}
		}()
	}
	close(start)
	if err := db.Close(); err != nil {
		t.Fatalf("DB.Close with queries in flight: %v", err)
	}
	wg.Wait()

	// Post-close: reads still answer (memory state remains), writes refuse.
	if rel, err := db.Query(`E`); err != nil || rel.Len() != 3 {
		t.Fatalf("read after Close: %v", err)
	}
	if err := db.Insert("E", dbpl.NewTuple(dbpl.Str("x"), dbpl.Str("y"))); !errors.Is(err, dbpl.ErrClosed) {
		t.Fatalf("write after Close: got %v, want ErrClosed", err)
	}
}

// TestServerShutdownRacesQueries is the network edition of the race above:
// dbpld sessions query in a loop while a graceful server Shutdown runs. Each
// session holds an open transaction, which keeps it up through the drain.
// Every result a client sees is whole or is an error — the shutdown
// refusal, never a panic, a short read, or a hung connection — and the
// transaction still rolls back, after which the server ends the session.
// Run under -race.
func TestServerShutdownRacesQueries(t *testing.T) {
	ctx := context.Background()
	db := openSeeded(t)
	defer db.Close()

	srv := server.New(db, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // exits when Shutdown closes the listener

	const workers = 6
	held := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Open(l.Addr().String())
			if err != nil {
				t.Errorf("pre-shutdown connect: %v", err)
				held <- struct{}{}
				return
			}
			defer c.Close()
			tx, err := c.Begin(ctx)
			held <- struct{}{}
			if err != nil {
				t.Errorf("pre-shutdown begin: %v", err)
				return
			}
			// Query until the drain refuses: a query issued before the drain
			// flag lands still succeeds, so poll.
			deadline := time.Now().Add(5 * time.Second)
			for i := 0; ; i++ {
				var rows *client.Rows
				if i%2 == 0 {
					rows, err = c.QueryContext(ctx, `E`)
				} else {
					rows, err = tx.QueryRows(ctx, `E`)
				}
				if err != nil {
					var re *wire.RemoteError
					if !errors.As(err, &re) || re.Code != wire.CodeShutdown {
						t.Errorf("query during Shutdown: %v, want the shutdown refusal", err)
					}
					break
				}
				n := 0
				for rows.Next() {
					n++
				}
				if rows.Err() != nil || n != 3 || rows.Len() != 3 {
					t.Errorf("result during Shutdown: %d of %d tuples, err %v", n, rows.Len(), rows.Err())
				}
				if time.Now().After(deadline) {
					t.Error("queries were never refused after Shutdown")
					break
				}
			}
			if err := tx.Rollback(); err != nil {
				t.Errorf("rollback during drain: %v", err)
			}
		}()
	}
	for g := 0; g < workers; g++ {
		<-held
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	wg.Wait()
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions survived Shutdown", n)
	}
}
