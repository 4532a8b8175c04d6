package stream

import (
	"testing"

	"streamrel/internal/ivm"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// TestDeliverReportsKept is PushBatch's kept, case by case: true exactly when
// something the batch reached may still hold a row of it — a store that keeps
// rows, a mailbox that has not applied it — and false for a batch folded into
// aggregates that keep no datum, one a tap or the ingest observer saw (they
// copy what they keep: a channel's table, the replication ring), or one
// rejected.
func TestDeliverReportsKept(t *testing.T) {
	hit := func(ts int64) types.Row {
		return types.Row{types.NewString("/a"), types.NewTimestampMicros(ts), types.NewString("ip")}
	}
	cases := []struct {
		name    string
		sharing bool
		cqs     []string
		setup   func(*env)
		rows    []types.Row // pushed instead of three good rows, and rejected
		want    bool
	}{
		{name: "no consumer", sharing: true, want: false},
		{name: "count and sum store", sharing: true, want: false,
			cqs: []string{`SELECT url, count(*), sum(length(client_ip)) FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`}},
		{name: "raw store", sharing: false, want: true,
			cqs: []string{`SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`}},
		{name: "min(varchar) store", sharing: true, want: true,
			cqs: []string{`SELECT min(client_ip) FROM url_stream <ADVANCE '1 minute'>`}},
		{name: "first store", sharing: true, want: true,
			cqs: []string{`SELECT first(client_ip) FROM url_stream <ADVANCE '1 minute'>`}},
		{name: "count(DISTINCT) store", sharing: true, want: true,
			cqs: []string{`SELECT count(DISTINCT client_ip) FROM url_stream <ADVANCE '1 minute'>`}},
		{name: "stddev store", sharing: true, want: true,
			cqs: []string{`SELECT stddev(length(url)) FROM url_stream <ADVANCE '1 minute'>`}},
		{name: "APPEND channel", sharing: true, want: false, setup: func(e *env) {
			e.rt.Tap("url_stream", func(trace.Ctx, int64, []types.Row, *Ingest) error { return nil })
		}},
		{name: "OnIngest", sharing: true, want: false, setup: func(e *env) {
			e.rt.OnIngest = func(trace.Ctx, string, []types.Row) {}
		}},
		{name: "rejected batch", sharing: false, want: false,
			cqs:  []string{`SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`},
			rows: []types.Row{hit(20 * minute), {types.NewString("/a")}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, c.sharing)
			for _, q := range c.cqs {
				e.subscribe(t, q)
			}
			if c.setup != nil {
				c.setup(e)
			}
			rows := c.rows
			if rows == nil {
				rows = []types.Row{hit(10 * minute), hit(10*minute + 1), hit(11 * minute)}
			}
			kept, err := e.rt.PushBatch(trace.Ctx{}, "url_stream", rows, nil)
			if (err != nil) != (c.rows != nil) {
				t.Fatalf("push: %v", err)
			}
			if kept != c.want {
				t.Errorf("kept = %v, want %v", kept, c.want)
			}
		})
	}

	// Under a pool, a mailbox that has not applied the batch may still read
	// it, whatever its store: here a worker is stuck in a fire's sink.
	t.Run("ParallelCQ 4, mailbox queued", func(t *testing.T) {
		e := newParallelEnv(t, true, 4)
		e.subscribe(t, `SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`)
		stuck, release := make(chan struct{}), make(chan struct{})
		stmt, err := sql.Parse(`SELECT count(*) FROM url_stream <ADVANCE '2 minutes'>`)
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&plan.Planner{Cat: e.cat}).BuildSelect(stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.rt.Subscribe(p, func(_ trace.Ctx, closeTS int64, _ []types.Row, _ *ivm.Frame) error {
			if closeTS == 12*minute {
				close(stuck)
				<-release
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.rt.PushBatch(trace.Ctx{}, "url_stream", []types.Row{hit(10 * minute)}, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.rt.Quiesce(); err != nil {
			t.Fatal(err)
		}
		kept, err := e.rt.PushBatch(trace.Ctx{}, "url_stream", []types.Row{hit(13 * minute)}, nil)
		<-stuck
		close(release)
		if err != nil || !kept {
			t.Errorf("kept = %v, %v with a worker still to apply the batch, want true", kept, err)
		}
		if err := e.rt.Quiesce(); err != nil {
			t.Fatal(err)
		}
	})
}
