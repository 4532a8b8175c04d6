package stream

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/trace"
)

// Mailboxes: the one hand-off between a source and its pipelines. Every
// pipeline on a source's delivery list owns a mailbox — a FIFO of
// micro-batch tasks — and at most one goroutine drains it at a time, so
// tasks — and therefore rows and window closes — are applied in exactly
// the order the producer enqueued them. Who drains is the only thing the
// ParallelCQ setting changes: without a pool the enqueuing goroutine
// claims the mailbox and drains it before its call returns; with a pool
// (sched.go) a worker does. Under a pool the mailbox bound gives blocking
// backpressure on the producer path: a producer outrunning a slow CQ
// parks on that CQ's mailbox instead of growing memory without bound.
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
	emRows  int             // taskEmission: row count of the emission
	flushed *sync.WaitGroup // taskFlush: one Done per mailbox the barrier passed
	tc      trace.Ctx
	enqNS   int64 // sampled tasks: wall-clock ns at enqueue, for the pickup span
}

// Mailbox claim states. The state machine is the claim token: the enqueue
// that finds the mailbox idle either claims it for its own goroutine
// (idle → running; see Pipeline.enqueue) or submits the pipeline to the
// pool, exactly once (idle → queued, then queued → running when a worker
// picks it up). running → idle when the drain empties the queue, or →
// queued again when a pool worker requeues after its quantum.
type mboxState uint8

const (
	mboxIdle mboxState = iota
	mboxQueued
	mboxRunning
)

// mailbox is one pipeline's task queue. q[head:] are pending tasks; size
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

// startMailbox gives the pipeline its mailbox. Called under the source
// lock before the pipeline is added to the fan-out list, so no task can
// precede it.
func (p *Pipeline) startMailbox() {
	m := &mailbox{bound: p.rt.parallel}
	m.cond = sync.NewCond(&m.mu)
	p.mbox = m
	if p.rt.reg != nil {
		p.unregQueueGauge = p.rt.reg.GaugeFunc("streamrel_pipeline_queue_depth",
			"micro-batch tasks queued in a pipeline's mailbox",
			func() float64 { return float64(m.depth()) },
			metrics.L("stream", p.src.name),
			metrics.L("pipe", strconv.FormatInt(p.id, 10)))
	}
}

// enqueue appends a task to the mailbox and decides who drains it. When
// the mailbox is idle — queue empty, nobody inside; the mailbox mutex
// orders the last drainer's writes before this read — and claim is set,
// the caller takes the claim token and must call runMailbox(drainAll)
// itself (enqueue reports true); otherwise an idle mailbox is submitted to
// the scheduler, and a busy one is left to whoever holds it. bounded
// enqueues (the base-stream producer path) block while the mailbox is at
// its bound — backpressure — and must never be used from a pool worker.
// Callers hold the source lock; a stopped mailbox drops the task (its
// pipeline is already detached).
func (p *Pipeline) enqueue(t task, bounded, claim bool) bool {
	m := p.mbox
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
		p.enqueued.Add(1)
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
		p.rt.sched.submit(p)
	}
	return claim
}

// runMailbox drains this pipeline's mailbox, on the goroutine that claimed
// it in enqueue (quantum drainAll) or on a pool worker (schedQuantum). At
// most one goroutine runs here at a time (the state machine's claim
// token), so tasks apply strictly in enqueue order. After a failure the
// drain keeps consuming (dropping work) so producers never block forever
// on a poisoned mailbox; the source sweeps the pipeline out and surfaces
// the error from the call that drained it, or under a pool from the next
// Push/Advance/Quiesce/Close. Block references are released even for
// dropped work.
func (p *Pipeline) runMailbox(quantum int) {
	m := p.mbox
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
			p.rt.sched.submit(p)
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
			if !p.failed.Load() {
				if err := p.apply(t); err != nil {
					p.fail(err)
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
// in-flight task to finish, then detaches per-pipeline gauges. Safe to
// call multiple times; pipelines without a mailbox only detach gauges.
func (p *Pipeline) stop() {
	p.stopOnce.Do(func() {
		if p.isHost() && p.ws.unregGauges != nil {
			p.ws.unregGauges()
		}
		if p.mbox == nil {
			return
		}
		m := p.mbox
		m.mu.Lock()
		m.stopped = true
		m.dropQueuedLocked()
		m.cond.Broadcast() // unblock bounded producers
		for m.state == mboxRunning {
			m.cond.Wait()
		}
		m.mu.Unlock()
		if p.unregQueueGauge != nil {
			p.unregQueueGauge()
		}
	})
}

// fail records the pipeline's first failure; the source's next sweep
// detaches it and reports the error. Only the goroutine applying the
// pipeline's input calls it.
func (p *Pipeline) fail(err error) {
	p.failErr = err
	p.failed.Store(true)
}

// takeErr returns the pipeline's failure, if any, consuming it.
func (p *Pipeline) takeErr() error {
	if !p.failed.Load() {
		return nil
	}
	err := p.failErr
	p.failErr = nil
	p.failed.Store(false)
	return err
}

func (p *Pipeline) apply(t task) error {
	switch t.kind {
	case taskBatch:
		p.pickup(t)
		return p.processBatch(t.batch, t.tc)
	case taskAdvance:
		return p.advanceTo(t.ts)
	case taskEmission:
		p.pickup(t)
		if err := p.processBatch(t.batch, t.tc); err != nil {
			return err
		}
		return p.endEmission(t.ts, t.emRows)
	}
	return nil
}

// pickup records the queue-wait span for a sampled task: the time between
// the producer's enqueue and the drainer dequeuing it.
func (p *Pipeline) pickup(t task) {
	if t.tc.ID == 0 || t.enqNS == 0 || p.rt.tracer == nil {
		return
	}
	p.rt.tracer.Record(trace.Span{Trace: t.tc.ID, Stage: trace.StagePickup,
		Stream: p.src.name, Pipe: p.id, Start: t.enqNS / 1000,
		Dur: time.Now().UnixNano() - t.enqNS, Rows: len(t.batch)})
}
