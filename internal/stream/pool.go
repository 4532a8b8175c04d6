package stream

import (
	"sync"
	"sync/atomic"
)

// The pooled container of the ingest hot path: a prepared micro-batch,
// shared by reference count across the goroutines that apply it. Two rules
// make the pooling safe (see DESIGN.md "Ingest hot path"):
//
//  1. Row values are immutable while anything holds them — a batch deliver
//     reports unkept its producer may rewrite — and only the []tsRow
//     CONTAINER is pooled. Nothing downstream may retain it: a raw store
//     appends the rows to its own slices, and what a feed or a source hands
//     on — a raw view's window, a tap's rows — goes in a container of its
//     own, kept and cleared where it is used.
//  2. A block is returned only by its owner: the producer for its own
//     reference (after every synchronous subscriber ran), each worker for
//     its reference (after apply).
//
// A block is cleared of row references before going back to the pool so a
// pooled slice cannot keep a dead batch's rows live.

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
