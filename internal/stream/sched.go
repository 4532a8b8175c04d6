package stream

import (
	"runtime"
	"sync"

	"streamrel/internal/metrics"
)

// The worker pool of parallel continuous-query mode.
//
// Feeds are scheduled as actors: the unit of work handed to the pool is a
// *feed whose mailbox has input, never an individual task. A feed is
// claimed by at most one worker at a time and its mailbox is
// drained in FIFO order, so rows and window closes are applied exactly in
// producer order — per-CQ results stay byte-identical to the synchronous
// engine while N runnable feeds use up to `workers` cores. This
// replaces the one-goroutine-per-pipeline model: 10k registered CQs cost
// 10k idle mailboxes, not 10k parked goroutine stacks, and wake-up work
// is bounded by the worker pool.
//
// Topology: one FIFO of runnable feeds under the scheduler's mutex.
// Producers, cascades and workers requeueing after their quantum submit to
// the tail; a worker takes the head. Idle workers wait on a condition
// variable. The queue also counts the workers inside a mailbox, so it can
// tell when the pool is idle: nothing queued and nobody draining
// (waitIdle, Runtime.Quiesce).
type scheduler struct {
	mu     sync.Mutex
	work   sync.Cond // workers wait here for a runnable feed
	idle   sync.Cond // waitIdle waits here for an empty queue and no active worker
	q      []*feed   // q[head:] are the runnable feeds, oldest first
	head   int
	active int // workers inside runMailbox
	closed bool

	workers int
	wg      sync.WaitGroup
	// parks counts worker sleeps; nil-safe via the zero value.
	parks *metrics.Counter
	unreg []func()
}

// schedQuantum is the number of mailbox tasks a worker applies before
// requeueing the feed, so one hot CQ cannot monopolize a worker while
// runnable peers wait (round-robin fairness at task granularity).
const schedQuantum = 32

func newScheduler(workers int, reg *metrics.Registry) *scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{workers: workers, parks: &metrics.Counter{}}
	s.work.L, s.idle.L = &s.mu, &s.mu
	if reg != nil {
		s.parks = reg.Counter("streamrel_sched_parks_total",
			"times a scheduler worker parked with no runnable pipelines")
		s.unreg = append(s.unreg,
			reg.GaugeFunc("streamrel_sched_workers",
				"scheduler worker pool size",
				func() float64 { return float64(workers) }),
			reg.GaugeFunc("streamrel_sched_runnable",
				"pipelines queued in the scheduler's run queue awaiting a worker",
				func() float64 { return float64(s.runnable()) }))
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// submit appends a runnable feed at the tail. Called exactly once per
// mailbox idle→queued transition (the mailbox state machine is the claim
// token), so a feed is never queued twice. A full array whose head has
// moved is compacted first, so a queue that never empties stays within
// twice its longest length.
func (s *scheduler) submit(f *feed) {
	s.mu.Lock()
	if len(s.q) == cap(s.q) && s.head > 0 {
		n := copy(s.q, s.q[s.head:])
		clear(s.q[n:])
		s.q, s.head = s.q[:n], 0
	}
	s.q = append(s.q, f)
	s.mu.Unlock()
	s.work.Signal()
}

// take removes the head feed and counts its worker active; nil when the
// queue is empty. Callers hold s.mu.
func (s *scheduler) take() *feed {
	if s.head == len(s.q) {
		return nil
	}
	f := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	s.active++
	return f
}

// runnable reports the feeds queued awaiting a worker.
func (s *scheduler) runnable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q) - s.head
}

// worker drains runnable feeds until the scheduler closes; once closed it
// claims what is left, so stopped mailboxes settle to idle, and exits.
func (s *scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		f := s.take()
		if f == nil {
			if s.closed {
				return
			}
			s.parks.Inc()
			s.work.Wait()
			continue
		}
		s.mu.Unlock()
		f.runMailbox(schedQuantum)
		s.mu.Lock()
		s.active--
		if s.active == 0 && s.head == len(s.q) {
			s.idle.Broadcast()
		}
	}
}

// waitIdle blocks until the queue is empty and no worker is inside a
// mailbox. A worker's requeue and whatever its mailbox cascades into are
// submitted before it leaves, so idle means no work is left in the pool.
func (s *scheduler) waitIdle() {
	s.mu.Lock()
	for s.active > 0 || s.head < len(s.q) {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// close stops the pool after runtime teardown has stopped every feed.
// Workers claim whatever is still queued (stopped mailboxes drain to
// idle), then exit.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	for _, u := range s.unreg {
		u()
	}
}
