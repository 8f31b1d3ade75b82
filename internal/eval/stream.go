// Streaming entry point for the Volcano executor: StreamSetExpr starts a set
// expression's branch pipelines on a background producer and hands result
// tuples out incrementally, so a Rows cursor observes the first batch before
// the last one is computed. Set semantics are enforced as tuples arrive: the
// producer deduplicates into the accumulating result relation and appends only
// genuinely new tuples to the consumer-visible sequence. Closing the stream
// cancels the producer's context, which every operator loop and worker polls,
// so abandoning a cursor mid-iteration releases its goroutines promptly.
package eval

import (
	"context"
	"errors"
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Stream is an incremental cursor over a set expression's evaluation. One
// consumer goroutine may call At/Materialize/Close; the producer side runs on
// background goroutines started by StreamSetExpr.
type Stream struct {
	cancel   context.CancelFunc
	finished chan struct{} // closed when the producer has fully exited

	mu   sync.Mutex
	cond *sync.Cond
	rel  *relation.Relation // accumulated result set (the dedup sink)
	seq  []value.Tuple      // delivery order: each new tuple exactly once
	done bool
	err  error
}

// StreamSetExpr begins evaluating s on a background producer and returns the
// stream immediately (type inference errors surface synchronously). onDone,
// when non-nil, runs once after the producer has fully exited — stats
// recording hooks go there. The stream's lifetime context derives from the
// environment's: cancelling the query context or calling Close stops the
// producer and its pipeline workers.
func (e *Env) StreamSetExpr(s *ast.SetExpr, resultType *schema.RelationType, onDone func()) (*Stream, error) {
	var rt schema.RelationType
	if resultType != nil {
		rt = *resultType
	} else {
		inferred, err := e.InferType(s)
		if err != nil {
			return nil, err
		}
		rt = inferred
	}
	ctx, cancel := context.WithCancel(e.Context())
	senv := e.Clone()
	senv.Ctx = ctx
	st := &Stream{
		cancel:   cancel,
		finished: make(chan struct{}),
		rel:      relation.New(rt),
	}
	st.cond = sync.NewCond(&st.mu)
	go func() {
		var err error
		for i := range s.Branches {
			if err = senv.streamBranch(&s.Branches[i], st); err != nil {
				break
			}
		}
		st.mu.Lock()
		st.done = true
		st.err = err
		st.cond.Broadcast()
		st.mu.Unlock()
		if onDone != nil {
			onDone()
		}
		close(st.finished)
	}()
	return st, nil
}

// Type returns the result relation type (fixed at StreamSetExpr time).
func (st *Stream) Type() schema.RelationType { return st.rel.Type() }

// At returns the i-th delivered tuple, blocking until it is produced or the
// stream ends. ok is false once the stream is exhausted (or failed — check
// Err).
func (st *Stream) At(i int) (value.Tuple, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i >= len(st.seq) && !st.done {
		st.cond.Wait()
	}
	if i < len(st.seq) {
		return st.seq[i], true
	}
	return nil, false
}

// Err returns the producer's evaluation error; meaningful once At has
// returned ok=false or Materialize has returned.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Materialize waits for the evaluation to complete and returns the full
// result relation. On failure the relation holds the tuples produced before
// the error.
func (st *Stream) Materialize() (*relation.Relation, error) {
	<-st.finished
	return st.rel, st.Err()
}

// Close cancels the evaluation and waits until the producer and every
// pipeline worker have exited. Idempotent. Tuples already delivered remain
// valid; a cancellation-induced error is not reported as a stream failure.
func (st *Stream) Close() {
	st.cancel()
	<-st.finished
	st.mu.Lock()
	if errors.Is(st.err, context.Canceled) {
		st.err = nil
	}
	st.mu.Unlock()
}

// emit folds one pipeline batch into the result set and appends the new
// tuples to the delivery sequence.
func (st *Stream) emit(batch []relation.Keyed) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, kd := range batch {
		n := st.rel.Len()
		if err := st.rel.InsertKeyed(kd); err != nil {
			return err
		}
		if st.rel.Len() > n {
			st.seq = append(st.seq, kd.T)
		}
	}
	st.cond.Broadcast()
	return nil
}

// insertLiteral routes a literal branch's tuple through the same dedup path.
func (st *Stream) insertLiteral(tup value.Tuple) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.rel.Len()
	if err := st.rel.Insert(tup); err != nil {
		return err
	}
	if st.rel.Len() > n {
		st.seq = append(st.seq, tup)
	}
	st.cond.Broadcast()
	return nil
}

// streamBranch evaluates one branch into the stream. It differs from
// runBranchPipeline only in its sink: worker batches are delivered to the
// stream as they are produced instead of merging after the barrier, so
// consumers see early results while later partitions are still running.
func (e *Env) streamBranch(br *ast.Branch, st *Stream) error {
	pb, err := e.prepareBranch(br, st.rel.Type())
	if err != nil {
		return err
	}
	if pb.literal != nil {
		return st.insertLiteral(pb.literal)
	}
	chunks := e.splitChunks(pb.outer)
	counterSets := make([][]*opCounters, len(chunks))
	err = e.fanOut(len(chunks), func(wenv *Env, w int) error {
		pipe, counters := wenv.buildBranchPipeline(pb, chunks[w], nil, st.rel)
		counterSets[w] = counters
		return drainPipe(pipe, st.emit)
	})
	flushCounters(e.ExecStats, counterSets, len(chunks))
	return err
}
