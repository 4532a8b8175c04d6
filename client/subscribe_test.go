package client_test

import (
	"net"
	"testing"
	"time"

	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/server"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// eagerBackend answers every subscribe and emits one batch at once, from a
// goroutine of its own, as a CQ whose first window is already closed does.
type eagerBackend struct{ reg *metrics.Registry }

func (b eagerBackend) Do(req *server.Request, resp *server.Response) {
	resp.Error = "eager: no " + req.Op
}

func (b eagerBackend) Subscribe(req *server.Request, emit func(*server.Response) bool) (*server.Response, func()) {
	go emit(&server.Response{Close: 1, Rows: server.WireRows([]types.Row{{types.NewInt(7)}})})
	return &server.Response{OK: true, Columns: []server.WireColumn{{Name: "n", Type: "bigint"}}}, func() {}
}

func (b eagerBackend) Metrics() *metrics.Registry { return b.reg }
func (b eagerBackend) Tracer() *trace.Tracer      { return nil }

// TestSubscribeKeepsFirstBatch: a batch the backend emits as soon as it has
// subscribed reaches the subscription. The session writes it only after the
// subscribe answer, and the client knows the handle before it reads on.
func TestSubscribeKeepsFirstBatch(t *testing.T) {
	srv := server.Over(eagerBackend{metrics.NewRegistry()})
	for run := 0; run < 200; run++ {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		c := client.New(cc, "", client.Options{})
		sub, err := c.Subscribe("SELECT n FROM s <ADVANCE '1 second'>")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case b := <-sub.C:
			if len(b.Rows) != 1 || b.Rows[0][0].Int() != 7 {
				t.Fatalf("run %d: first batch %v", run, b.Rows)
			}
		case <-time.After(time.Second):
			t.Fatalf("run %d: the first batch was dropped", run)
		}
		c.Close()
	}
}
