package stream

import (
	"runtime/debug"
	"testing"

	"streamrel/internal/metrics"
)

// TestRunQueueAllocs: submitting, taking and requeueing feeds through a warm
// run queue allocates nothing, keeps FIFO order, and a queue that never
// empties stays within twice its length instead of growing by what passed
// through it.
func TestRunQueueAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := &scheduler{parks: &metrics.Counter{}}
	s.work.L, s.idle.L = &s.mu, &s.mu
	feeds := make([]*feed, 8)
	for i := range feeds {
		feeds[i] = &feed{}
		s.submit(feeds[i])
	}
	next := 0
	cycle := func() {
		s.mu.Lock()
		f := s.take()
		s.active--
		s.mu.Unlock()
		if f != feeds[next%len(feeds)] {
			t.Fatalf("take %d returned feed out of FIFO order", next)
		}
		next++
		s.submit(f) // the requeue after a quantum
	}
	for range 64 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a take and requeue allocates %.1f times, want 0", allocs)
	}
	if s.runnable() != len(feeds) || s.active != 0 {
		t.Fatalf("queue holds %d feeds with %d active, want %d and 0", s.runnable(), s.active, len(feeds))
	}
	if cap(s.q) > 2*len(feeds) {
		t.Errorf("the queue's array grew to %d for %d feeds", cap(s.q), len(feeds))
	}
	for _, f := range s.q[:s.head] {
		if f != nil {
			t.Fatal("a taken slot keeps its feed")
		}
	}
}
