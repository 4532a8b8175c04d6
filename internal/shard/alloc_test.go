package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

var racing bool // race_test.go

// TestRouterAppendAllocs: 32 producers send 600 keyed rows in appends of 4
// over loopback into a durable shard (SyncWAL, the stream archived by an
// APPEND channel) while a CQ watches, and the whole process — producers,
// wire codec, router, engine and CQ — makes at most 8.5 allocations a row
// sent directly to the shard and 10.8 sent through a one-shard router (7.7
// and 9.8 measured, 11.2 and 12.0 before the append round trip reused its
// per-request objects). The producers' connections and rows are counted too,
// so the figure is a small run's, above what a long one pays a row.
func TestRouterAppendAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		router bool
		max    float64
	}{{"direct", false, 8.5}, {"router", true, 10.8}} {
		perRow := routerAppendAllocs(t, c.router)
		t.Logf("%s: %.1f allocations a row", c.name, perRow)
		if perRow > c.max && !racing {
			t.Errorf("%s: %.1f allocations a row, want at most %.1f", c.name, perRow, c.max)
		}
	}
}

// routerAppendAllocs runs TestRouterAppendAllocs's workload against one
// durable shard, through a router if asked, and returns the process's
// allocations per row over the producers' run.
func routerAppendAllocs(t *testing.T, useRouter bool) float64 {
	const rows, producers, batch = 600, 32, 4
	eng, err := streamrel.Open(streamrel.Config{Dir: t.TempDir(), SyncWAL: true, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(eng)
	front, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	if useRouter {
		r, err := NewRouter(Options{Addrs: []string{front}, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if up := r.WaitReady(10 * time.Second); up != 1 {
			t.Fatal("the shard did not come up")
		}
		if front, err = r.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go r.Serve()
	}

	admin, err := client.Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	for _, stmt := range []string{
		`CREATE STREAM s (k varchar(16), v bigint, at timestamp CQTIME SYSTEM) PARTITION BY k`,
		`CREATE TABLE raw (k varchar(16), v bigint, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := admin.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	sub, err := admin.Subscribe(`SELECT count(*) AS c, cq_close(*) FROM s <ADVANCE '250 milliseconds'>`)
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C {
		}
	}()

	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(front)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer c.Close()
			out := make([]client.Row, batch)
			for lo := int(next.Add(batch)) - batch; lo < rows; lo = int(next.Add(batch)) - batch {
				for i := range out {
					id := lo + i
					out[i] = client.Row{
						types.NewString(fmt.Sprintf("k%02d", id%64)),
						types.NewInt(int64(id)),
						types.NewTimestamp(time.Now()), // CQTIME SYSTEM stamps its own
					}
				}
				if err := c.Append("s", out...); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if err, ok := firstErr.Load().(error); ok {
		t.Fatal(err)
	}
	sub.Close()
	<-drained
	return float64(after.Mallocs-before.Mallocs) / rows
}
