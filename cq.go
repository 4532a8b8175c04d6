package streamrel

import (
	"fmt"
	"sync"
	"time"

	"streamrel/internal/sql"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// Batch is the output of one window close of a continuous query: the
// window's result relation plus the boundary timestamp (what cq_close(*)
// returned inside the window).
type Batch struct {
	Close time.Time
	// Rows is read-only, the slice and every row in it: both may be shared
	// with the other subscribers of an equivalent query, and a row with
	// later batches — a group a close did not change is delivered again as
	// the same Row. Copy before modifying (Row.Clone).
	Rows []Row
}

// CQ is a handle on a running continuous query. Results queue internally;
// read them with Next (blocking) or TryNext (non-blocking). The query
// subscribes to a feed — a window of its stream, its own or one shared with
// every query of the same slices — whose input flows through a mailbox. By default the appending goroutine
// drains it, so every batch produced by an Append or AdvanceTime call is
// already queued when that call returns. With Config.ParallelCQ > 0 the
// scheduler's worker pool drains it: batches arrive in the same
// order with the same contents, but asynchronously — call Engine.Flush
// (or read with Next) to wait for them.
type CQ struct {
	// Columns names and types the result rows.
	Columns Schema
	// Strategy names how this CQ's window is kept and fired, in the
	// vocabulary of sys.pipelines.mode: "incremental" (attached to a
	// materialized window-state store: fires emit from per-group state
	// maintained by deltas) or "reexec" (keeps its rows in a raw store of
	// its own and runs the plan over them).
	Strategy string

	eng  *Engine
	pipe *stream.Pipeline

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Batch // queue[head:] is undelivered
	head   int
	closed bool
}

// Subscribe compiles a continuous query — a SELECT over a windowed stream
// — and starts it. The CQ runs until Close (paper §3.1: "CQs produce
// answers incrementally and run until they are explicitly terminated").
func (e *Engine) Subscribe(sqlText string) (*CQ, error) { return e.SubscribeArgs(sqlText) }

// SubscribeArgs starts a continuous query with $1, $2, … placeholders
// bound to args; the bindings are fixed for the CQ's lifetime.
func (e *Engine) SubscribeArgs(sqlText string, args ...Value) (*CQ, error) {
	stmt, err := sql.ParseArgs(sqlText, args)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("streamrel: Subscribe takes a SELECT")
	}
	p, err := e.planner.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	if p.Stream == nil {
		return nil, fmt.Errorf("streamrel: query reads no stream; use Query for snapshot queries")
	}
	cq := &CQ{Columns: p.Columns, eng: e}
	cq.cond = sync.NewCond(&cq.mu)
	pipe, err := e.rt.Subscribe(p, cq.deliver)
	if err != nil {
		return nil, err
	}
	cq.pipe = pipe
	cq.Strategy = pipe.Strategy()
	return cq, nil
}

// deliver queues the batch of one window close.
func (cq *CQ) deliver(_ trace.Ctx, closeTS int64, rows []types.Row) error {
	cq.mu.Lock()
	if !cq.closed {
		cq.queue = append(cq.queue, Batch{Close: time.UnixMicro(closeTS).UTC(), Rows: rows})
		cq.cond.Broadcast()
	}
	cq.mu.Unlock()
	return nil
}

// pop takes the oldest batch, if any, and clears its slot; once half the
// array is taken the rest moves to its front (head is 0 whenever the queue is
// empty), so a reader that keeps up reuses one array.
func (cq *CQ) pop() (b Batch, ok bool) {
	if len(cq.queue) == 0 {
		return b, false
	}
	b, cq.queue[cq.head] = cq.queue[cq.head], Batch{}
	if cq.head++; 2*cq.head >= len(cq.queue) {
		n := copy(cq.queue, cq.queue[cq.head:])
		clear(cq.queue[n:])
		cq.queue, cq.head = cq.queue[:n], 0
	}
	return b, true
}

// TryNext returns the next queued batch without blocking.
func (cq *CQ) TryNext() (Batch, bool) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.pop()
}

// Next blocks until a batch is available or the CQ is closed. The second
// result is false once the CQ is closed and drained.
func (cq *CQ) Next() (Batch, bool) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	for len(cq.queue) == 0 && !cq.closed {
		cq.cond.Wait()
	}
	return cq.pop()
}

// Drain returns every queued batch.
func (cq *CQ) Drain() []Batch {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	out := cq.queue[cq.head:]
	cq.queue, cq.head = nil, 0
	return out
}

// Pending reports the number of queued batches.
func (cq *CQ) Pending() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return len(cq.queue) - cq.head
}

// Close terminates the continuous query and wakes blocked readers.
func (cq *CQ) Close() {
	cq.mu.Lock()
	if cq.closed {
		cq.mu.Unlock()
		return
	}
	cq.closed = true
	cq.cond.Broadcast()
	cq.mu.Unlock()
	cq.eng.rt.Unsubscribe(cq.pipe)
}

// RuntimeStats is the per-pipeline snapshot behind sys.pipelines, with its
// sums.
type RuntimeStats = stream.Stats

// Stats returns the stream runtime's per-pipeline snapshot — what the
// sys.pipelines stream carries, one consistent read per live pipeline, plus
// sums over it. It is not a metrics surface: every counter an operator
// reads comes from Metrics().Gather (as /metrics text, the "metrics" wire
// op, or flattened by metrics.Flatten for client.Stats, sys.metrics and the
// REPL's \stats).
func (e *Engine) Stats() RuntimeStats { return e.rt.Stats() }
