package client

import (
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"streamrel/internal/server"
)

var racing bool // race_test.go

// fakeServer accepts connections and reads their requests, answering with an
// empty response each one answer accepts and never the others.
func fakeServer(t *testing.T, answer func(*server.Request) bool) string {
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
					if answer(&req) && fw.Write(&server.Response{ID: req.ID}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func dialTest(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRPCTimeout: a call to a server that reads and never answers times out,
// and so does the next, on the timer the first one pooled. Against a live
// server a call after a timeout gets its response — also after a timer that
// fired while its call's response won the select, which goes back to the pool
// holding its tick (staged here, as it races in the wild).
func TestRPCTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	silent := dialTest(t, fakeServer(t, func(*server.Request) bool { return false }), Options{RPCTimeout: timeout})
	for i := 0; i < 2; i++ {
		start := time.Now()
		if err := silent.Ping(); err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("call %d to a server that never answers: %v, want a timeout", i, err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("call %d timed out after %v, before its %v", i, took, timeout)
		}
	}

	live := dialTest(t, fakeServer(t, func(req *server.Request) bool { return req.Op != "exec" }), Options{RPCTimeout: timeout})
	if _, err := live.Exec("never answered"); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("unanswered call: %v, want a timeout", err)
	}
	for i := 0; i < 20; i++ {
		if err := live.Ping(); err != nil {
			t.Fatalf("call %d after a timeout: %v", i, err)
		}
		fired := time.NewTimer(time.Microsecond)
		time.Sleep(time.Millisecond)
		live.putTimer(fired)
	}
}

// TestRoundTripAllocs: roundTrip takes its RPCTimeout timer from the client's
// pool, so a round trip with a timeout allocates no more than one without.
// Both sides count the fake server's allocations too, which are the same.
func TestRoundTripAllocs(t *testing.T) {
	if racing {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	addr := fakeServer(t, func(*server.Request) bool { return true })
	const calls = 500
	perCall := func(opts Options) float64 {
		c := dialTest(t, addr, opts)
		query := func() {
			if _, err := c.Query("SELECT 1"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			query()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / calls
	}
	without, with := perCall(Options{}), perCall(Options{RPCTimeout: time.Minute})
	t.Logf("a round trip allocates %.2f times without RPCTimeout, %.2f with it", without, with)
	if with > without+0.5 {
		t.Errorf("a round trip with RPCTimeout allocates %.2f times, %.2f without: want no more", with, without)
	}
}
