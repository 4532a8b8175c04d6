package streamrel

import (
	"sync"
	"testing"
	"time"
)

// TestSystemCQTime: CQTIME SYSTEM streams ignore user-supplied timestamps
// and stamp arrival time, monotonically.
func TestSystemCQTime(t *testing.T) {
	clock := MustTimestamp("2009-01-04 12:00:00")
	e, err := Open(Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	cq, err := e.Subscribe(`SELECT v, at FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	// The user-supplied timestamp (deliberately ancient) must be replaced
	// by the engine clock.
	if err := e.Append("s", Row{Int(1), Timestamp(MustTimestamp("1999-01-01 00:00:00"))}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if err := e.Append("s", Row{Int(2), Null}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if err := e.AdvanceTime("s", clock); err != nil {
		t.Fatal(err)
	}
	b, ok := cq.TryNext()
	if !ok || len(b.Rows) != 2 {
		t.Fatalf("batch: %+v ok=%v", b, ok)
	}
	if got := b.Rows[0][1].Time(); got.Format("2006-01-02 15:04:05") != "2009-01-04 12:00:00" {
		t.Fatalf("row 0 stamped %v", got)
	}
	if got := b.Rows[1][1].Time(); got.Format("15:04:05") != "12:00:30" {
		t.Fatalf("row 1 stamped %v", got)
	}
}

// TestSystemCQTimeMonotonic: a clock that goes backwards must not produce
// out-of-order stamps.
func TestSystemCQTimeMonotonic(t *testing.T) {
	clock := MustTimestamp("2009-01-04 12:00:00")
	e, err := Open(Config{Now: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	if err := e.Append("s", Row{Int(1), Null}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(-time.Hour) // NTP step backwards
	if err := e.Append("s", Row{Int(2), Null}); err != nil {
		t.Fatalf("monotonic stamping should absorb clock regressions: %v", err)
	}
}

// TestLateRowPolicies exercises the three disorder policies.
func TestLateRowPolicies(t *testing.T) {
	base := MustTimestamp("2009-01-04 00:00:00")
	late := Row{Int(99), Timestamp(base.Add(-time.Minute))}
	onTime := Row{Int(1), Timestamp(base)}

	// Reject (default): error.
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	if err := e.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("s", late); err == nil {
		t.Fatal("reject policy should error")
	}

	// Drop: silently discarded, counted.
	eDrop, err := Open(Config{LateRows: LateDrop})
	if err != nil {
		t.Fatal(err)
	}
	defer eDrop.Close()
	mustExec(t, eDrop, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, _ := eDrop.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	defer cq.Close()
	if err := eDrop.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := eDrop.Append("s", late); err != nil {
		t.Fatal(err)
	}
	eDrop.AdvanceTime("s", base.Add(time.Minute))
	b, _ := cq.TryNext()
	if b.Rows[0][0].Int() != 1 {
		t.Fatalf("dropped row was counted: %v", b.Rows)
	}
	if eDrop.Stats().LateDropped != 1 {
		t.Fatalf("LateDropped = %d", eDrop.Stats().LateDropped)
	}

	// Clamp: the row lands in the current window.
	eClamp, err := Open(Config{LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer eClamp.Close()
	mustExec(t, eClamp, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq2, _ := eClamp.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	defer cq2.Close()
	if err := eClamp.Append("s", onTime); err != nil {
		t.Fatal(err)
	}
	if err := eClamp.Append("s", late); err != nil {
		t.Fatal(err)
	}
	eClamp.AdvanceTime("s", base.Add(time.Minute))
	b2, _ := cq2.TryNext()
	if b2.Rows[0][0].Int() != 2 {
		t.Fatalf("clamped row missing: %v", b2.Rows)
	}
}

// TestSystemCQTimeConcurrentAppend: concurrent producers on a CQTIME
// SYSTEM stream are stamped under the stream's own lock, so stamp order is
// delivery order and no append is rejected as out of order.
func TestSystemCQTimeConcurrentAppend(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME SYSTEM)`)
	cq, err := e.Subscribe(`SELECT at FROM s <VISIBLE 1 ROWS ADVANCE 1 ROWS>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := e.Append("s", Row{Int(int64(i)), Null}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var last time.Time
	for n := 0; n < producers*perProducer; n++ {
		b, ok := cq.TryNext()
		if !ok {
			t.Fatalf("delivered %d rows, want %d", n, producers*perProducer)
		}
		if at := b.Rows[0][0].Time(); at.Before(last) {
			t.Fatalf("row %d stamped %v after %v", n, at, last)
		} else {
			last = at
		}
	}
}
