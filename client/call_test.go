package client

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

// TestHeldResponsesOutliveLaterCalls: the client reuses a call's request,
// response and channel once the call has returned, so what a caller holds
// must not be any of them. A response Do returned and a Query's rows read
// the same after 200 appends from 8 goroutines on the same client.
func TestHeldResponsesOutliveLaterCalls(t *testing.T) {
	eng, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ExecScript(`CREATE TABLE t (a bigint, b varchar);
		INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
		CREATE STREAM s (k varchar, v bigint, at timestamp CQTIME SYSTEM);`); err != nil {
		t.Fatal(err)
	}
	ours, theirs := net.Pipe()
	go server.New(eng).ServeConn(theirs)
	c := New(ours, "", Options{})
	defer c.Close()

	resp, err := c.Do(&server.Request{Op: "query", SQL: "SELECT a, b FROM t ORDER BY a"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query("SELECT b, a FROM t WHERE a > $1 ORDER BY a", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		return fmt.Sprintf("%v %v %v | %v %v", resp.OK, resp.Columns, rendered(resp), rows.Columns, rows.Data)
	}
	const want = "true [{a BIGINT} {b VARCHAR}] [1|one 2|two 3|three] | [{b VARCHAR} {a BIGINT}] [two|2 three|3]"
	if got := render(); got != want {
		t.Fatalf("the results read\n%s\nwant\n%s", got, want)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 25 {
				row := Row{types.NewString(fmt.Sprintf("g%d-%d", g, i)), types.NewInt(int64(i)), types.NewTimestamp(time.Now())}
				if err := c.Append("s", row, row); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := render(); got != want {
		t.Fatalf("after 200 appends the held results read\n%s\nwant\n%s", got, want)
	}
}

// rendered renders a response's rows.
func rendered(resp *server.Response) []string {
	var out []string
	for _, r := range server.Rows(resp.Rows) {
		out = append(out, r.String())
	}
	return out
}

// TestTimedOutCallIsNotReused: the channel of a call that timed out may still
// receive its late response, so the client never hands that call to a later
// request. A server answers the first exec after the call has timed out and
// every later one at once, each with its own number as the affected count:
// every later call gets its own, and the timed-out call is never back among
// the client's reusable ones.
func TestTimedOutCallIsNotReused(t *testing.T) {
	const timeout = 20 * time.Millisecond
	addr := lateServer(t, func(req *server.Request) time.Duration {
		if req.SQL == "0" {
			return 3 * timeout
		}
		return 0
	})
	c := dialTest(t, addr, Options{RPCTimeout: timeout})
	if n, err := c.Exec("1"); err != nil || n != 1 {
		t.Fatalf("a warm-up call: %d, %v", n, err)
	}
	c.mu.Lock()
	spare := slices.Clone(c.calls) // the call the timed-out request will take
	c.mu.Unlock()
	if _, err := c.Exec("0"); err == nil {
		t.Fatal("a call answered late did not time out")
	}
	deadline := time.Now().Add(6 * timeout)
	for i := 2; time.Now().Before(deadline) || i < 50; i++ {
		n, err := c.Exec(strconv.Itoa(i))
		if err != nil || n != i {
			t.Fatalf("call %d, after one timed out: %d, %v", i, n, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range spare {
		if slices.Contains(c.calls, cl) {
			t.Fatal("the call that timed out was reused")
		}
	}
}

// lateServer is fakeServer whose answer to each request waits delay(req),
// without holding up the requests behind it, and carries the number the
// request's SQL is as its affected count.
func lateServer(t *testing.T, delay func(*server.Request) time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fr, fw := server.NewFrameReader(conn), server.NewFrameWriter(conn, 0)
				for {
					var req server.Request
					if fr.Read(&req) != nil {
						return
					}
					n, _ := strconv.Atoi(req.SQL)
					resp := &server.Response{ID: req.ID, OK: true, Affected: n}
					if d := delay(&req); d > 0 {
						time.AfterFunc(d, func() { fw.Write(resp) })
					} else if fw.Write(resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSubscribeArgsOutliveTheSession: a CQ binds its $n for its lifetime,
// while the session decodes every request into the same Request and every
// append nothing keeps into the batch before it. A CQ subscribed with $1
// still filters on its own key after the session has served queries and
// appends that carry other arguments and other strings.
func TestSubscribeArgsOutliveTheSession(t *testing.T) {
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

	const key = "the-key-this-cq-was-subscribed-with"
	sub, err := c.Subscribe(`SELECT k, count(*) FROM s <ADVANCE '1 minute'> WHERE k = $1 GROUP BY k`, types.NewString(key))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	base := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	const rounds = 50
	for i := range rounds {
		other := types.NewString(fmt.Sprintf("other-argument-%02d", i)) // no longer than the key: it fits its memory
		if _, err := c.Query("SELECT $1", other); err != nil {
			t.Fatal(err)
		}
		at := types.NewTimestamp(base.Add(time.Duration(i) * time.Second))
		if err := c.Append("s", Row{types.NewString(key), types.NewInt(1), at}, Row{other, types.NewInt(2), at}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-sub.C:
		if len(b.Rows) != 1 || b.Rows[0].String() != fmt.Sprintf("%s|%d", key, rounds) {
			t.Fatalf("the window holds %v, want %s|%d", b.Rows, key, rounds)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no window")
	}
}

// TestLostWindowReachesTheSubscription: a window the server fired but could
// not encode arrives as an error frame under the subscription's handle. It is
// delivered on C as a batch carrying the error at the window's close, and the
// windows after it follow.
func TestLostWindowReachesTheSubscription(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const lost = "server: cannot encode frame: frame exceeds the cap"
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw := server.NewFrameReader(conn), server.NewFrameWriter(conn, 0)
		for {
			var req server.Request
			if fr.Read(&req) != nil {
				return
			}
			if fw.Write(&server.Response{ID: req.ID, OK: true, CQ: 7}) != nil {
				return
			}
			if req.Op == "ping" { // the subscription is registered by now
				fw.Write(&server.Response{Batch: true, CQ: 7, Close: 60_000_000, Error: lost})
				fw.Write(&server.Response{Batch: true, CQ: 7, Close: 120_000_000, Rows: [][]server.WireValue{{types.NewInt(5)}}})
			}
		}
	}()
	c := dialTest(t, ln.Addr().String(), Options{})
	sub, err := c.Subscribe("SELECT count(*) FROM s <ADVANCE '1 minute'>")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		close int64
		err   string
		rows  string
	}{{60_000_000, lost, "[]"}, {120_000_000, "", "[5]"}} {
		select {
		case b := <-sub.C:
			got := ""
			if b.Err != nil {
				got = b.Err.Error()
			}
			if b.Close.UnixMicro() != want.close || got != want.err || fmt.Sprint(b.Rows) != want.rows {
				t.Fatalf("batch at %d: %v, error %q; want %s, error %q at %d", b.Close.UnixMicro(), b.Rows, got, want.rows, want.err, want.close)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no batch")
		}
	}
}
