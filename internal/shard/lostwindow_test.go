package shard

import (
	"net"
	"sync"
	"testing"
	"time"

	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

// fakeShard answers every request OK — a subscribe with handle 1 and one
// BIGINT column — and, once a subscription is up, writes the frames sent on
// push under that handle.
type fakeShard struct {
	addr string
	push chan *server.Response
	subs chan struct{} // one send a subscription served
}

func startFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	f := &fakeShard{addr: ln.Addr().String(), push: make(chan *server.Response, 16), subs: make(chan struct{}, 16)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeShard) serve(conn net.Conn) {
	defer conn.Close()
	fr, fw := server.NewFrameReader(conn), server.NewFrameWriter(conn, 0)
	var once sync.Once
	for {
		var req server.Request
		if fr.Read(&req) != nil {
			return
		}
		resp := &server.Response{ID: req.ID, OK: true}
		if req.Op == "subscribe" {
			resp.CQ, resp.Columns = 1, []server.WireColumn{{Name: "n", Type: "BIGINT"}}
		}
		if fw.Write(resp) != nil {
			return
		}
		if req.Op == "subscribe" {
			once.Do(func() {
				go func() {
					for p := range f.push {
						p.Batch, p.CQ = true, 1
						if fw.Write(p) != nil {
							return
						}
					}
				}()
			})
			f.subs <- struct{}{}
		}
	}
}

// TestRouterLostWindowIsPartial: a shard that fires a window it cannot send
// (over the frame cap) sends an error frame under the subscription instead.
// Through the router's merge the close is emitted with the other shards'
// rows and flagged partial, not reported whole once the shard's next close
// arrives; through its passthrough the client gets the error under its own
// handle.
func TestRouterLostWindowIsPartial(t *testing.T) {
	shards := []*fakeShard{startFakeShard(t), startFakeShard(t)}
	r, err := NewRouter(Options{Addrs: []string{shards[0].addr, shards[1].addr}, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if up := r.WaitReady(5 * time.Second); up != 2 {
		t.Fatalf("%d of 2 shards came up", up)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ddl := range []string{
		`CREATE STREAM p (k varchar(20), v bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE STREAM u (k varchar(20), v bigint, at timestamp CQTIME USER)`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	count := func(n int64) [][]server.WireValue { return [][]server.WireValue{{types.NewInt(n)}} }
	const t1, t2 = 60_000_000, 120_000_000
	lost := &server.Response{Close: t1, Error: "server: cannot encode frame: frame exceeds the cap"}

	merged, err := c.Subscribe(`SELECT count(*) AS n FROM p <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range shards {
		<-f.subs
	}
	shards[0].push <- &server.Response{Close: t1, Rows: count(3)}
	shards[1].push <- lost
	shards[0].push <- &server.Response{Close: t2, Rows: count(1)}
	shards[1].push <- &server.Response{Close: t2, Rows: count(2)}
	for _, want := range []struct {
		close   int64
		n       int64
		partial bool
	}{{t1, 3, true}, {t2, 3, false}} {
		b := nextBatch(t, merged)
		if b.Err != nil || b.Close.UnixMicro() != want.close || len(b.Rows) != 1 || b.Rows[0][0].Int() != want.n || b.Partial != want.partial {
			t.Fatalf("merged close %v: rows %v, partial %v, err %v; want %d at %d, partial %v", b.Close.UnixMicro(), b.Rows, b.Partial, b.Err, want.n, want.close, want.partial)
		}
	}
	merged.Close()

	passed, err := c.Subscribe(`SELECT count(*) AS n FROM u <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	<-shards[0].subs
	shards[0].push <- lost
	shards[0].push <- &server.Response{Close: t2, Rows: count(4)}
	if b := nextBatch(t, passed); b.Err == nil || b.Err.Error() != lost.Error || b.Close.UnixMicro() != t1 || len(b.Rows) != 0 {
		t.Fatalf("passed-through lost window: close %v, rows %v, err %v; want the shard's error at %d", b.Close.UnixMicro(), b.Rows, b.Err, t1)
	}
	if b := nextBatch(t, passed); b.Err != nil || b.Close.UnixMicro() != t2 || len(b.Rows) != 1 || b.Rows[0][0].Int() != 4 {
		t.Fatalf("the window after it: close %v, rows %v, err %v", b.Close.UnixMicro(), b.Rows, b.Err)
	}
	passed.Close()
}
