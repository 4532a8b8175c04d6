//go:build go1.24

package streamrel

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"streamrel/internal/trace"
	"streamrel/internal/types"
)

func newQueueCQ() *CQ {
	cq := &CQ{}
	cq.cond = sync.NewCond(&cq.mu)
	return cq
}

// TestCQQueueAllocs: a reader that keeps up with its CQ reuses one queue
// array — a delivered batch taken by Next or TryNext costs the queue no
// allocation — and so does one that stays a few batches behind: once half the
// array is handed out, the rest moves to its front instead of the array
// growing around the handed-out slots. Batches come out in delivery order.
func TestCQQueueAllocs(t *testing.T) {
	rows := []types.Row{{types.NewInt(1)}}
	for _, backlog := range []int{0, 5} {
		cq := newQueueCQ()
		delivered, taken := int64(0), int64(0)
		deliver := func() {
			delivered++
			if err := cq.deliver(trace.Ctx{}, delivered, rows); err != nil {
				t.Fatal(err)
			}
		}
		take := func(next func() (Batch, bool)) {
			taken++
			if b, ok := next(); !ok || b.Close.UnixMicro() != taken {
				t.Fatalf("backlog %d: took %v (%v), want the batch of close %d", backlog, b.Close.UnixMicro(), ok, taken)
			}
		}
		for i := 0; i < backlog; i++ {
			deliver()
		}
		step := func() {
			deliver()
			take(cq.Next)
			deliver()
			take(cq.TryNext)
		}
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("backlog %d: delivering and taking a batch allocates %.1f times, want 0", backlog, n)
		}
		if cq.Pending() != backlog || cap(cq.queue) > 4*(backlog+2) {
			t.Errorf("backlog %d: %d pending in an array of %d", backlog, cq.Pending(), cap(cq.queue))
		}
	}
}

// TestCQQueuePinsNoBatch: a batch Next handed out is the reader's; the
// queue's slot for it is cleared, so the queue does not keep its rows
// reachable after the reader lets go of them.
func TestCQQueuePinsNoBatch(t *testing.T) {
	cq := newQueueCQ()
	first := []types.Row{make(types.Row, 4)}
	gone := weak.Make(&first[0])
	for c := int64(1); c <= 3; c++ {
		if err := cq.deliver(trace.Ctx{}, c, first); err != nil {
			t.Fatal(err)
		}
		first = []types.Row{make(types.Row, 4)}
	}
	first = nil
	if b, ok := cq.Next(); !ok || b.Close.UnixMicro() != 1 {
		t.Fatalf("Next = %v, %v", b, ok)
	}
	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the queue keeps a batch Next handed out reachable")
	}
	if cq.Pending() != 2 {
		t.Fatalf("%d pending, want 2", cq.Pending())
	}
}
