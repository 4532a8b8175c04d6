package stream

import (
	"sync"
	"sync/atomic"

	"streamrel/internal/types"
)

// Pooled containers for the ingest hot path. Two rules make the pooling
// safe (see DESIGN.md "Ingest hot path"):
//
//  1. Row values (types.Row and the datums inside) are immutable and
//     shared freely; only the CONTAINERS — []tsRow batch slices and
//     []types.Row window materializations — are pooled. Nothing
//     downstream may retain a pooled container: feeds copy tsRow
//     values into their own buffers, operators copy Row slice headers
//     into fresh output rows, taps insert rows into the heap.
//  2. A pooled container is returned only by its owner: the producer for
//     a batch block (after every synchronous subscriber ran), each
//     worker for its reference (after apply), the firing feed for a
//     window block (after the plan drained).
//
// Containers are cleared of row references before going back to the pool
// so a pooled slice cannot keep a dead batch's rows live.

// batchBlock is one prepared micro-batch with a reference count. The
// producer holds one reference; fan-out to the feeds takes one
// more per enqueue, released by the worker after the task is applied
// (or dropped by a failed worker's drain). When the count reaches zero
// the container returns to the pool.
type batchBlock struct {
	rows []tsRow
	refs atomic.Int32
}

var batchPool = sync.Pool{New: func() any { return new(batchBlock) }}

// getBatchBlock returns an empty block with capacity for capHint rows
// and the producer's reference already counted.
func getBatchBlock(capHint int) *batchBlock {
	b := batchPool.Get().(*batchBlock)
	if cap(b.rows) < capHint {
		b.rows = make([]tsRow, 0, capHint)
	} else {
		b.rows = b.rows[:0]
	}
	b.refs.Store(1)
	return b
}

func (b *batchBlock) retain() { b.refs.Add(1) }

// release drops one reference; the last one clears the row references
// and pools the container.
func (b *batchBlock) release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	for i := range b.rows {
		b.rows[i] = tsRow{}
	}
	b.rows = b.rows[:0]
	batchPool.Put(b)
}

// rowsBlock is a pooled []types.Row container for transient row lists:
// window materializations handed to the plan (released after the fire
// drains) and per-batch tap deliveries (released after the tap returns).
type rowsBlock struct {
	rows []types.Row
}

var rowsPool = sync.Pool{New: func() any { return new(rowsBlock) }}

func getRowsBlock(capHint int) *rowsBlock {
	b := rowsPool.Get().(*rowsBlock)
	if cap(b.rows) < capHint {
		b.rows = make([]types.Row, 0, capHint)
	} else {
		b.rows = b.rows[:0]
	}
	return b
}

// put clears the container and pools it; a nil block (rows that were never
// pooled) is left alone.
func (b *rowsBlock) put() {
	if b == nil {
		return
	}
	for i := range b.rows {
		b.rows[i] = nil
	}
	b.rows = b.rows[:0]
	rowsPool.Put(b)
}
