package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/server"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// Options configures a Router.
type Options struct {
	// Addrs lists the shard servers in shard-map order. The order IS the
	// shard map: restarting the router with a different order re-homes
	// keys and corrupts per-key locality.
	Addrs []string
	// Log receives structured diagnostics; nil silences them.
	Log *slog.Logger
	// Client sets per-shard connection timeouts.
	Client client.Options
	// TraceSampleEvery samples one in N routed appends for tracing (0 =
	// trace.DefaultSampleEvery, negative = off).
	TraceSampleEvery int
}

// Router speaks the streamrel client protocol in front of N shards:
// appends split by partition key, snapshot queries scatter-gather with a
// merge step, CQ subscriptions merge per-shard window results on close.
// DDL broadcasts to every shard (and must flow through the router so its
// catalog mirror stays truthful). Unpartitioned relations live on shard
// 0 by convention.
type Router struct {
	// The session loop the router answers behind; Listen, Serve and
	// ServeConn are its.
	*server.Server

	shardMap Map
	shards   []*shardConn
	mir      *mirror
	reg      *metrics.Registry
	tracer   *trace.Tracer
	log      *slog.Logger

	appendRows  *metrics.Counter
	appendHist  *metrics.Histogram
	partialCtr  *metrics.Counter
	scatterHist *metrics.Histogram
}

// NewRouter builds a router over the given shard addresses and starts
// the per-shard connection managers (dialing in the background).
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard address")
	}
	reg := metrics.NewRegistry()
	r := &Router{
		shardMap: Map{Addrs: opts.Addrs},
		mir:      newMirror(),
		reg:      reg,
		log:      opts.Log,
	}
	if opts.TraceSampleEvery >= 0 {
		r.tracer = trace.New(trace.Options{
			SampleEvery: opts.TraceSampleEvery,
			Metrics:     reg,
			Logger:      opts.Log,
		})
	}
	r.appendRows = reg.Counter("streamrel_router_append_rows_total",
		"rows accepted by the router's append path")
	r.appendHist = reg.Histogram("streamrel_router_append_seconds",
		"keyed append latency through the router, split to last shard ack", nil)
	r.partialCtr = reg.Counter("streamrel_router_partial_results_total",
		"responses flagged partial because one or more shards were down")
	r.scatterHist = reg.Histogram("streamrel_router_scatter_seconds",
		"scatter-gather snapshot query latency, fan-out to merge", nil)
	r.Server = server.Over(r)
	r.Server.Log = opts.Log
	for i, addr := range opts.Addrs {
		sc := newShardConn(i, addr, opts.Client, reg, opts.Log)
		r.shards = append(r.shards, sc)
		go sc.connect()
	}
	return r, nil
}

// Metrics returns the router's registry (per-shard health, queue depth,
// routed rows, latency series) for a /metrics endpoint.
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Tracer returns the router's tracer (nil when tracing is off).
func (r *Router) Tracer() *trace.Tracer { return r.tracer }

// WaitReady blocks until every shard connection is up or the timeout
// elapses; it returns the number of healthy shards.
func (r *Router) WaitReady(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		up := 0
		for _, sc := range r.shards {
			if sc.up() {
				up++
			}
		}
		if up == len(r.shards) || time.Now().After(deadline) {
			return up
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the router: its front door, then the shard connections.
func (r *Router) Close() error {
	err := r.Server.Close()
	for _, sc := range r.shards {
		sc.close()
	}
	return err
}

func fail(err error) *server.Response { return &server.Response{Error: err.Error()} }

// Do answers the data ops behind the session loop (server.Backend).
func (r *Router) Do(req *server.Request, out *server.Response) {
	var resp *server.Response
	switch req.Op {
	case "exec":
		resp = r.execStmt(req)
	case "query":
		resp = r.query(req)
	case "append":
		resp = r.append(req)
	case "advance":
		resp = r.advance(req)
	default:
		resp = fail(fmt.Errorf("router: unknown op %q", req.Op))
	}
	if resp.Partial {
		r.partialCtr.Inc()
	}
	*out = *resp
}

// execStmt routes one exec. DDL broadcasts to every shard in shard
// order; table DML broadcasts so replicated tables stay identical
// everywhere; stream inserts route like appends.
func (r *Router) execStmt(req *server.Request) *server.Response {
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		return fail(err)
	}
	switch s := stmt.(type) {
	case *sql.CreateTable, *sql.CreateStream, *sql.CreateDerivedStream,
		*sql.CreateView, *sql.CreateChannel, *sql.CreateIndex, *sql.Drop:
		resp := r.broadcast(req)
		if resp.Error == "" {
			r.mir.observe(stmt)
		}
		return resp
	case *sql.Insert:
		if r.mir.isPartitionedStream(s.Table) {
			return fail(fmt.Errorf("router: INSERT into partitioned stream %q is not routed; use the append op, which splits by partition key", s.Table))
		}
		if s.Query != nil && r.mir.baseOfSelect(s.Query) != "" {
			return fail(fmt.Errorf("router: INSERT … SELECT over partitioned data is not supported through the router"))
		}
		return r.broadcast(req)
	case *sql.Update, *sql.Delete, *sql.Truncate:
		return r.broadcast(req)
	case *sql.Show, *sql.Explain:
		return r.single(0, req)
	case *sql.Select:
		return fail(fmt.Errorf("router: use the query op for snapshot queries"))
	}
	return fail(fmt.Errorf("router: unsupported statement %T", stmt))
}

// broadcast applies one request on every shard, in shard order, all or
// nothing reported: the first failure aborts and is returned (shards
// earlier in the order have already applied — rerun the statement with
// IF NOT EXISTS / IF EXISTS to converge).
func (r *Router) broadcast(req *server.Request) *server.Response {
	var first *server.Response
	for i, sc := range r.shards {
		resp, err := sc.do(&server.Request{Op: req.Op, SQL: req.SQL, Args: req.Args})
		if err != nil {
			return fail(fmt.Errorf("router: shard %d: %w (shards 0–%d already applied)", i, err, i-1))
		}
		if first == nil {
			first = resp
		}
	}
	out := *first
	return &out
}

// single forwards one request to a single shard.
func (r *Router) single(shard int, req *server.Request) *server.Response {
	resp, err := r.shards[shard].do(&server.Request{
		Op: req.Op, SQL: req.SQL, Stream: req.Stream, Rows: req.Rows,
		TS: req.TS, Args: req.Args, Trace: req.Trace,
	})
	if err != nil {
		return fail(err)
	}
	out := *resp
	return &out
}

// query routes a snapshot query: scatter-gather + merge over every
// relation fed by partitioned data, shard 0 otherwise.
func (r *Router) query(req *server.Request) *server.Response {
	plan, err := r.plan(req)
	if err != nil {
		return fail(err)
	}
	if plan == nil {
		return r.single(0, req)
	}
	start := time.Now()
	resp := r.scatter(req, plan)
	r.scatterHist.ObserveSince(start)
	return resp
}

// plan parses the SELECT of a query or subscription and plans its merge, with
// the request's arguments; nil when it reads no partitioned data.
func (r *Router) plan(req *server.Request) (*MergePlan, error) {
	stmt, err := sql.ParseGeneric(req.SQL, req.Args)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("router: %s expects a SELECT", req.Op)
	}
	base := r.mir.baseOfSelect(sel)
	if base == "" {
		return nil, nil
	}
	plan, err := PlanMerge(sel, r.mir.partColOf(base))
	if err != nil {
		return nil, err
	}
	plan.Args = slices.Clone(req.Args) // a CQ's outlive the request, which the session reuses
	return plan, nil
}

// scatter fans one query out to every shard and merges the results.
// Downed shards degrade the response to Partial rather than failing it;
// a SQL error from any shard fails the whole query.
func (r *Router) scatter(req *server.Request, plan *MergePlan) *server.Response {
	// An aggregate's partial block is a different query text than the
	// client sent; the merge step folds its rows.
	sqlText, args := plan.shardQuery(req.SQL)
	results := r.fanOut(server.Request{Op: req.Op, SQL: sqlText, Args: args})

	partial := false
	parts := make([][]types.Row, len(results))
	var columns []server.WireColumn
	for i, res := range results {
		if res.err != nil {
			var down ErrShardDown
			if errors.As(res.err, &down) {
				partial = true
				continue
			}
			return fail(res.err)
		}
		if err := agree(&columns, i, res.resp.Columns); err != nil {
			return fail(err)
		}
		parts[i] = server.Rows(res.resp.Rows)
	}
	if columns == nil {
		return fail(fmt.Errorf("router: all shards down"))
	}
	out, err := plan.Bind(columns)
	if err != nil {
		return fail(err)
	}
	rows, err := plan.Merge(parts)
	if err != nil {
		return fail(err)
	}
	return &server.Response{OK: true, Columns: out, Partial: partial, Rows: server.WireRows(rows)}
}

// agree records the first answering shard's columns in *cols and fails for
// a later shard whose columns differ: the merge is planned over the first's,
// and a planned tree must not index past a row.
func agree(cols *[]server.WireColumn, shard int, got []server.WireColumn) error {
	if *cols == nil {
		*cols = got
		return nil
	}
	if !slices.Equal(*cols, got) {
		return fmt.Errorf("router: shard %d answered columns %v, unlike the shards before it (%v)", shard, got, *cols)
	}
	return nil
}

// shardResult is one shard's answer to a request fanOut sent it.
type shardResult struct {
	resp *server.Response
	err  error
}

// fanOut sends req to every shard at once, a copy each, and returns their
// answers in shard order; what a missing answer means is the caller's rule.
func (r *Router) fanOut(req server.Request) []shardResult {
	results := make([]shardResult, len(r.shards))
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := req
			results[i].resp, results[i].err = sc.do(&req)
		}()
	}
	wg.Wait()
	return results
}

// append splits a keyed batch into per-shard sub-batches and hands them
// to the coalescing senders; unpartitioned streams live on shard 0.
// Per-shard failures degrade to a Partial response (the surviving
// shards' rows are in) unless every shard fails.
func (r *Router) append(req *server.Request) *server.Response {
	meta, ok := r.mir.partMeta(req.Stream)
	if !ok {
		return r.single(0, req)
	}
	start := time.Now()
	tc := r.tracer.Begin(req.Stream, len(req.Rows))
	traceID := ""
	if tc.Sampled() {
		traceID = trace.FormatID(tc.ID)
	}
	parts, err := r.shardMap.SplitWire(req.Rows, meta.partIdx)
	if err != nil {
		return fail(err)
	}
	dones := make([]chan error, len(parts))
	counts := make([]int, len(parts))
	for i, sub := range parts {
		if len(sub) == 0 {
			continue
		}
		dones[i] = r.shards[i].enqueueAppend(req.Stream, sub, traceID)
		counts[i] = len(sub)
	}
	accepted := 0
	partial := false
	var firstErr error
	for i, done := range dones {
		if done == nil {
			continue
		}
		if err := <-done; err != nil {
			var down ErrShardDown
			if errors.As(err, &down) {
				partial = true
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted += counts[i]
	}
	r.appendHist.ObserveSince(start)
	if tc.Sampled() {
		r.tracer.Record(trace.Span{
			Trace: tc.ID, Stage: trace.StageRouterIngest, Stream: req.Stream,
			Start: start.UnixMicro(), Dur: int64(time.Since(start)), Rows: len(req.Rows),
		})
	}
	if firstErr != nil {
		// A shard rejected its sub-batch (schema or late-row error). Other
		// shards may have applied theirs — ingest is at-least-partial, like
		// any distributed append without cross-shard transactions.
		return fail(firstErr)
	}
	if accepted == 0 && partial {
		return fail(fmt.Errorf("router: all target shards down"))
	}
	r.appendRows.Add(int64(accepted))
	return &server.Response{OK: true, Affected: accepted, Partial: partial}
}

// advance broadcasts a heartbeat to every live shard for partitioned
// streams (each shard's windows close independently; the CQ merger
// re-aligns them on close timestamps), shard 0 otherwise.
func (r *Router) advance(req *server.Request) *server.Response {
	if !r.mir.isPartitionedStream(req.Stream) {
		return r.single(0, req)
	}
	partial := false
	for _, sc := range r.shards {
		if _, err := sc.do(&server.Request{Op: "advance", Stream: req.Stream, TS: req.TS}); err != nil {
			var down ErrShardDown
			if errors.As(err, &down) {
				partial = true
				continue
			}
			return fail(err)
		}
	}
	return &server.Response{OK: true, Partial: partial}
}

// Subscribe starts a continuous query (server.Backend). Partitioned
// sources subscribe on every live shard and merge window results
// close-by-close; everything else passes through to shard 0.
func (r *Router) Subscribe(req *server.Request, emit func(*server.Response) bool) (*server.Response, func()) {
	plan, err := r.plan(req)
	if err != nil {
		return fail(err), nil
	}
	if plan == nil {
		cli, err := r.shards[0].client()
		if err != nil {
			return fail(err), nil
		}
		sub, err := cli.Subscribe(req.SQL, req.Args...)
		if err != nil {
			return fail(err), nil
		}
		go func() {
			for b := range sub.C {
				out := &server.Response{Close: b.Close.UnixMicro(), Rows: server.WireRows(b.Rows)}
				if b.Err != nil {
					out.Error = b.Err.Error() // the shard's error frame, under this session's handle
				}
				if !emit(out) {
					return
				}
			}
		}()
		return &server.Response{OK: true, Columns: sub.WireColumns}, func() { sub.Close() }
	}

	sqlText, args := plan.shardQuery(req.SQL)
	subs := make([]*client.Subscription, len(r.shards))
	stop := func() {
		for _, s := range subs {
			if s != nil {
				s.Close()
			}
		}
	}
	var columns []server.WireColumn
	live := 0
	for i, sc := range r.shards {
		cli, err := sc.client()
		if err != nil {
			continue // downed shard: merge flags partial
		}
		sub, err := cli.Subscribe(sqlText, args...)
		if err != nil {
			stop()
			return fail(err), nil
		}
		subs[i] = sub
		if err := agree(&columns, i, sub.WireColumns); err != nil {
			stop()
			return fail(err), nil
		}
		live++
	}
	if live == 0 {
		return fail(fmt.Errorf("router: all shards down")), nil
	}
	out, err := plan.Bind(columns)
	if err != nil {
		stop()
		return fail(err), nil
	}
	partial := live < len(r.shards)
	if partial {
		r.partialCtr.Inc()
	}
	var resp server.Response // the merger emits under its lock, one close at a time
	m := newCQMerger(plan, len(r.shards), partial, func(closeUS int64, rows []types.Row, partial bool) {
		resp = server.Response{Close: closeUS, Partial: partial, Rows: server.WireRows(rows)}
		emit(&resp)
		resp = server.Response{}
	})
	for i, sub := range subs {
		if sub == nil {
			m.markDead(i)
			continue
		}
		go func(i int, sub *client.Subscription) {
			for b := range sub.C {
				if b.Err != nil {
					m.onLost(i, b.Close.UnixMicro())
				} else {
					m.onBatch(i, b.Close.UnixMicro(), b.Rows)
				}
			}
			m.markDead(i)
		}(i, sub)
	}
	return &server.Response{OK: true, Columns: out, Partial: partial}, stop
}
