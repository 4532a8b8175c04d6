package stream

import (
	"runtime"
	"sync"
	"sync/atomic"

	"streamrel/internal/metrics"
)

// Work-stealing scheduler for parallel continuous-query mode.
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
// Topology: one bounded deque per worker. A producer submits a runnable
// feed to a deque chosen round-robin; the owning worker pops from the
// front (FIFO fairness), and an idle worker steals the back half of the
// first non-empty victim deque it finds (steal-half amortizes the steal
// lock against future polls). Idle workers park on a single condition
// variable; a submit bumps a generation counter and signals, and a parked
// worker re-scans before sleeping so no submit is lost.
type scheduler struct {
	deques []schedDeque

	mu     sync.Mutex // guards gen, parked, closed
	cond   *sync.Cond
	gen    uint64 // bumped per submit; parked workers re-scan on change
	parked int
	closed bool

	rr       atomic.Uint64 // round-robin submit cursor
	runnable atomic.Int64  // feeds sitting in deques (queue depth)
	wg       sync.WaitGroup

	// steals counts victim deques robbed; parks counts worker sleeps.
	// Both are cheap single-writer-ish counters; nil-safe via zero values.
	steals *metrics.Counter
	parks  *metrics.Counter
	unreg  []func()
}

// schedDeque is one worker's run queue of claimable feeds. head
// indexes the next front pop; stealers take the back half.
type schedDeque struct {
	mu   sync.Mutex
	q    []*feed
	head int
	// stolen is the scratch its worker steals into: only that worker
	// touches it, so it needs no lock, and it is cleared after each steal.
	stolen []*feed
}

// schedQuantum is the number of mailbox tasks a worker applies before
// requeueing the feed, so one hot CQ cannot monopolize a worker while
// runnable peers wait (round-robin fairness at task granularity).
const schedQuantum = 32

func newScheduler(workers int, reg *metrics.Registry) *scheduler {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{
		deques: make([]schedDeque, workers),
		steals: &metrics.Counter{},
		parks:  &metrics.Counter{},
	}
	s.cond = sync.NewCond(&s.mu)
	if reg != nil {
		s.steals = reg.Counter("streamrel_sched_steals_total",
			"pipeline batches stolen from another worker's deque")
		s.parks = reg.Counter("streamrel_sched_parks_total",
			"times a scheduler worker parked with no runnable pipelines")
		s.unreg = append(s.unreg,
			reg.GaugeFunc("streamrel_sched_workers",
				"scheduler worker pool size",
				func() float64 { return float64(workers) }),
			reg.GaugeFunc("streamrel_sched_runnable",
				"pipelines queued in scheduler deques awaiting a worker",
				func() float64 { return float64(s.runnable.Load()) }))
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// submit makes a feed claimable. Called exactly once per mailbox
// idle→queued transition (the mailbox state machine is the claim token),
// so a feed is never in two deques.
func (s *scheduler) submit(f *feed) {
	d := &s.deques[int(s.rr.Add(1))%len(s.deques)]
	d.mu.Lock()
	d.q = append(d.q, f)
	d.mu.Unlock()
	s.runnable.Add(1)
	s.mu.Lock()
	s.gen++
	if s.parked > 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// poll returns the next feed for worker i: front of its own deque, or
// the back half of the first non-empty victim (the first stolen feed
// runs now, the rest land in i's deque).
func (s *scheduler) poll(i int) *feed {
	d := &s.deques[i]
	if f := d.pop(); f != nil {
		s.runnable.Add(-1)
		return f
	}
	n := len(s.deques)
	for off := 1; off < n; off++ {
		stolen := s.deques[(i+off)%n].stealHalf(d.stolen)
		if len(stolen) == 0 {
			continue
		}
		s.steals.Inc()
		s.runnable.Add(-1)
		f := stolen[0]
		if len(stolen) > 1 {
			d.mu.Lock()
			d.q = append(d.q, stolen[1:]...)
			d.mu.Unlock()
		}
		clear(stolen)
		d.stolen = stolen[:0]
		return f
	}
	return nil
}

func (d *schedDeque) pop() *feed {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.q) {
		return nil
	}
	f := d.q[d.head]
	d.q[d.head] = nil
	d.head++
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
	return f
}

// stealHalf removes the back half (rounded up) of the deque and appends it
// to into.
func (d *schedDeque) stealHalf(into []*feed) []*feed {
	d.mu.Lock()
	defer d.mu.Unlock()
	cut := len(d.q) - (len(d.q)-d.head+1)/2
	into = append(into, d.q[cut:]...)
	clear(d.q[cut:])
	d.q = d.q[:cut]
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
	return into
}

// worker claims runnable feeds and drains their mailboxes until the
// scheduler closes. The gen-check before parking closes the race between
// a fruitless scan and a concurrent submit.
func (s *scheduler) worker(i int) {
	defer s.wg.Done()
	for {
		f := s.poll(i)
		if f == nil {
			s.mu.Lock()
			g := s.gen
			s.mu.Unlock()
			if f = s.poll(i); f == nil {
				s.mu.Lock()
				for s.gen == g && !s.closed {
					s.parked++
					s.parks.Inc()
					s.cond.Wait()
					s.parked--
				}
				closed := s.closed
				s.mu.Unlock()
				if closed {
					// Final sweep: claim leftovers so stopped mailboxes
					// settle to idle before the pool exits.
					for {
						q := s.poll(i)
						if q == nil {
							return
						}
						q.runMailbox(schedQuantum)
					}
				}
				continue
			}
		}
		f.runMailbox(schedQuantum)
	}
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
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	for _, u := range s.unreg {
		u()
	}
}
