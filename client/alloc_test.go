package client

import (
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

// TestAppendRoundTripAllocs: a warm Client.Append into a server's session, on
// a stream nothing keeps, allocates at most 4 times a call in the whole
// process — client, wire, session and engine. The client's call (its request,
// response and channel) and the session's request and response are reused,
// and the server decodes each frame into the batch the last one left unkept.
// Before the per-request objects were reused this read 9.1; it reads under
// 0.1 now, and the bound leaves the engine room.
func TestAppendRoundTripAllocs(t *testing.T) {
	const calls, maxAllocs = 500, 4
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Exec(`CREATE STREAM s (k varchar, v bigint, at timestamp CQTIME USER)`); err != nil {
		t.Fatal(err)
	}
	ours, theirs := net.Pipe()
	go server.New(eng).ServeConn(theirs)
	c := New(ours, "", Options{})
	defer c.Close()
	at := types.NewTimestamp(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))
	rows := make([]Row, 16)
	for i := range rows {
		rows[i] = Row{types.NewString("k"), types.NewInt(int64(i)), at}
	}
	appendRows := func() {
		if err := c.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		appendRows()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		appendRows()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("a warm append of %d rows: %.2f allocations", len(rows), perCall)
	if perCall > maxAllocs && !racing {
		t.Errorf("a warm append of %d rows allocates %.2f times, want at most %d", len(rows), perCall, maxAllocs)
	}
}
