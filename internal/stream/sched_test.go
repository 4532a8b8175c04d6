package stream

import (
	"runtime/debug"
	"testing"

	"streamrel/internal/metrics"
)

// TestStealAllocs: an idle worker steals the back half of a victim's deque
// into a scratch of its own and moves all but the first stolen feed into its
// own deque, allocating nothing once the deques and the scratch have grown;
// the scratch keeps no feed after the steal.
func TestStealAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := &scheduler{deques: make([]schedDeque, 2), steals: &metrics.Counter{}, parks: &metrics.Counter{}}
	own, victim := &s.deques[0], &s.deques[1]
	feeds := make([]*feed, 8)
	for i := range feeds {
		feeds[i] = &feed{}
	}
	steal := func() {
		victim.q, victim.head = append(victim.q[:0], feeds...), 0
		s.runnable.Store(int64(len(feeds)))
		if f := s.poll(0); f != feeds[4] || len(own.q) != 3 || own.q[0] != feeds[5] || len(victim.q) != 4 {
			t.Fatalf("the steal took %d of 8 feeds and left %d", len(own.q)+1, len(victim.q))
		}
		if len(own.stolen) != 0 || own.stolen[:1][0] != nil {
			t.Fatal("the steal's scratch keeps a feed")
		}
		clear(own.q)
		own.q = own.q[:0]
	}
	steal() // grows the deques and the scratch
	if allocs := testing.AllocsPerRun(100, steal); allocs != 0 {
		t.Errorf("a steal allocates %.1f times, want 0", allocs)
	}
}
