package stream

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/trace"
)

// Mailboxes: the one hand-off between a source and its feeds. Every feed
// owns a mailbox — a FIFO of micro-batch tasks — and nothing else does; at
// most one goroutine drains it at a time, so tasks — and therefore rows and
// window closes — are applied in exactly the order the producer enqueued
// them. Who drains is the only thing the ParallelCQ setting changes:
// without a pool the enqueuing goroutine claims the mailbox and drains it
// before its call returns; with a pool (sched.go) a worker does. Under a pool the mailbox bound gives blocking
// backpressure on the producer path: a producer outrunning a slow CQ
// parks on that CQ's feed instead of growing memory without bound.
// Enqueues from inside the pool (derived-stream cascades, flush barriers)
// are exempt from the bound so pool workers never block on a mailbox — a
// bounded cascade enqueue could deadlock the pool when every worker waits
// on a mailbox only another pool worker could drain.

type taskKind uint8

const (
	// taskBatch applies a prepared micro-batch of stream rows.
	taskBatch taskKind = iota
	// taskAdvance is a heartbeat: close windows up to ts.
	taskAdvance
	// taskEmission is one derived-stream emission: the batch plus the
	// emission boundary for SLICES-window consumers.
	taskEmission
	// taskFlush is a barrier: the drainer marks flushed done once
	// everything enqueued before it has been applied.
	taskFlush
)

type task struct {
	kind  taskKind
	batch []tsRow
	// block owns batch's backing storage when the batch rode in on a
	// pooled block; the drainer releases its reference after the task is
	// applied (or dropped by a stopped mailbox's drain). nil for advance
	// and flush tasks.
	block *batchBlock
	// ts is the heartbeat (taskAdvance), the emission boundary
	// (taskEmission) or the batch's last timestamp (taskBatch).
	ts      int64
	flushed *sync.WaitGroup // taskFlush: one Done per mailbox the barrier passed
	tc      trace.Ctx
	enqNS   int64 // sampled tasks: wall-clock ns at enqueue, for the pickup span
}

// Mailbox claim states. The state machine is the claim token: the enqueue
// that finds the mailbox idle either claims it for its own goroutine
// (idle → running; see feed.enqueue) or submits the feed to the
// pool, exactly once (idle → queued, then queued → running when a worker
// picks it up). running → idle when the drain empties the queue, or →
// queued again when a pool worker requeues after its quantum.
type mboxState uint8

const (
	mboxIdle mboxState = iota
	mboxQueued
	mboxRunning
)

// mailbox is one feed's task queue. q[head:] are the queued tasks; size
// mirrors that count atomically for lock-free depth reads (metrics).
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond // producers blocked on bound; stop waiting for running
	q     []task
	head  int
	size  atomic.Int64
	state mboxState
	// bound is the producer backpressure threshold in tasks; 0 without a
	// pool, where the enqueuer drains and nothing ever waits.
	bound   int
	stopped bool
}

func (m *mailbox) depth() int { return int(m.size.Load()) }

// drainAll is the quantum of a goroutine that drains a mailbox it claimed
// itself: it never requeues.
const drainAll = math.MaxInt

// enqueue appends a task to the mailbox and decides who drains it. When
// the mailbox is idle — queue empty, nobody inside; the mailbox mutex
// orders the last drainer's writes before this read — and claim is set,
// the caller takes the claim token and must call runMailbox(drainAll)
// itself (enqueue reports true); otherwise an idle mailbox is submitted to
// the scheduler, and a busy one is left to whoever holds it. bounded
// enqueues (the base-stream producer path) block while the mailbox is at
// its bound — backpressure — and must never be used from a pool worker.
// Callers hold the source lock; a stopped mailbox drops the task (its
// feed is already off the delivery list).
func (f *feed) enqueue(t task, bounded, claim bool) bool {
	m := &f.mbox
	m.mu.Lock()
	if bounded && m.bound > 0 {
		for m.size.Load() >= int64(m.bound) && !m.stopped {
			m.cond.Wait()
		}
	}
	if m.stopped {
		m.mu.Unlock()
		dropTask(t)
		return false
	}
	if t.kind != taskFlush {
		f.enqueued.Add(1)
	}
	m.q = append(m.q, t)
	m.size.Add(1)
	idle := m.state == mboxIdle
	claim = claim && idle
	switch {
	case claim:
		m.state = mboxRunning
	case idle:
		m.state = mboxQueued
	}
	m.mu.Unlock()
	if idle && !claim {
		f.rt.sched.submit(f)
	}
	return claim
}

// runMailbox drains this feed's mailbox, on the goroutine that claimed
// it in enqueue (quantum drainAll) or on a pool worker (schedQuantum). At
// most one goroutine runs here at a time (the state machine's claim
// token), so tasks apply strictly in enqueue order. After a failure the
// drain keeps consuming (dropping work) so producers never block forever
// on a poisoned mailbox; the source sweeps the feed out and surfaces
// the error from the call that drained it, or under a pool from the next
// Push/Advance/Quiesce/Close. Block references are released even for
// dropped work.
func (f *feed) runMailbox(quantum int) {
	m := &f.mbox
	n := 0
	m.mu.Lock()
	m.state = mboxRunning
	for {
		if m.stopped {
			m.dropQueuedLocked()
		}
		if m.head >= len(m.q) {
			m.q, m.head = m.q[:0], 0
			break
		}
		if n >= quantum {
			// Quantum spent: requeue so runnable peers get this worker.
			m.state = mboxQueued
			m.mu.Unlock()
			f.rt.sched.submit(f)
			return
		}
		t := m.q[m.head]
		m.q[m.head] = task{}
		m.head++
		m.size.Add(-1)
		m.cond.Signal() // one slot freed: wake a bounded producer
		m.mu.Unlock()
		n++
		if t.kind == taskFlush {
			t.flushed.Done()
		} else {
			if !f.failed.Load() {
				if err := f.apply(t); err != nil {
					f.fail(err, f.src)
				}
			}
			if t.block != nil {
				t.block.release()
			}
		}
		m.mu.Lock()
	}
	m.state = mboxIdle
	m.cond.Broadcast() // wake stop() waiting for the drain to finish
	m.mu.Unlock()
}

// dropQueuedLocked discards every queued task of a stopped mailbox.
func (m *mailbox) dropQueuedLocked() {
	for ; m.head < len(m.q); m.head++ {
		dropTask(m.q[m.head])
		m.q[m.head] = task{}
		m.size.Add(-1)
	}
	m.q, m.head = m.q[:0], 0
}

// dropTask releases a dropped task's resources so stop/enqueue-after-stop
// never leak pooled blocks or strand a flush barrier.
func dropTask(t task) {
	if t.kind == taskFlush {
		t.flushed.Done()
		return
	}
	if t.block != nil {
		t.block.release()
	}
}

// stop marks the mailbox stopped, drops queued work and waits for any
// in-flight task to finish, then detaches the feed's gauges. Safe to call
// multiple times.
func (f *feed) stop() {
	f.stopOnce.Do(func() {
		m := &f.mbox
		m.mu.Lock()
		m.stopped = true
		m.dropQueuedLocked()
		m.cond.Broadcast() // unblock bounded producers
		for m.state == mboxRunning {
			m.cond.Wait()
		}
		m.mu.Unlock()
		for _, unreg := range f.unreg {
			unreg()
		}
	})
}

func (f *feed) apply(t task) error {
	switch t.kind {
	case taskBatch:
		f.pickup(t)
		return f.processBatch(t.batch, t.tc)
	case taskAdvance:
		return f.advanceTo(t.ts)
	case taskEmission:
		f.pickup(t)
		if err := f.processBatch(t.batch, t.tc); err != nil {
			return err
		}
		return f.endEmission(t.ts)
	}
	return nil
}

// pickup records the queue-wait span for a sampled task: the time between
// the producer's enqueue and the drainer dequeuing it.
func (f *feed) pickup(t task) {
	if t.tc.ID == 0 || t.enqNS == 0 || f.rt.tracer == nil {
		return
	}
	f.rt.tracer.Record(trace.Span{Trace: t.tc.ID, Stage: trace.StagePickup,
		Stream: f.src.name, Pipe: f.id, Start: t.enqNS / 1000,
		Dur: time.Now().UnixNano() - t.enqNS, Rows: len(t.batch)})
}
