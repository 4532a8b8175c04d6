package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
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
	shardMap Map
	shards   []*shardConn
	mir      *mirror
	reg      *metrics.Registry
	tracer   *trace.Tracer
	log      *slog.Logger

	lis net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	appendRows  *metrics.Counter
	appendHist  *metrics.Histogram
	partialCtr  *metrics.Counter
	scatterHist *metrics.Histogram
	connGauge   *metrics.Gauge
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
		conns:    make(map[net.Conn]struct{}),
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
	r.connGauge = reg.Gauge("streamrel_server_connections", "open client connections")
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

// Listen binds the router's client listener.
func (r *Router) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.lis = lis
	return lis.Addr().String(), nil
}

// Serve accepts client connections until Close. Blocks.
func (r *Router) Serve() error {
	for {
		conn, err := r.lis.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		r.mu.Lock()
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		go r.handle(conn)
	}
}

// Close stops the router: listener, client sessions, shard connections.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	for _, sc := range r.shards {
		sc.close()
	}
	if r.lis != nil {
		return r.lis.Close()
	}
	return nil
}

// rsession is one client connection's state on the router.
type rsession struct {
	r    *Router
	conn net.Conn
	fw   *server.FrameWriter

	nextCQ int64
	subs   map[int64]*routedSub
	done   chan struct{}
}

// routedSub is one routed subscription: the per-shard client
// subscriptions feeding either a merge (partitioned) or a passthrough.
type routedSub struct {
	subs []*client.Subscription
}

func (rs *routedSub) close() {
	for _, s := range rs.subs {
		if s != nil {
			s.Close()
		}
	}
}

func (r *Router) handle(conn net.Conn) {
	sess := &rsession{
		r:    r,
		conn: conn,
		fw:   server.NewFrameWriter(conn, 0),
		subs: make(map[int64]*routedSub),
		done: make(chan struct{}),
	}
	r.connGauge.Add(1)
	defer func() {
		close(sess.done)
		for _, rs := range sess.subs {
			rs.close()
		}
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		r.connGauge.Add(-1)
	}()

	err := server.ServeFrames(conn, sess.fw, func(req *server.Request) *server.Response {
		resp := sess.dispatch(req)
		if resp.Partial {
			r.partialCtr.Inc()
		}
		return resp
	})
	if err != nil && r.log != nil {
		r.log.Warn("router: session ended", "error", err.Error())
	}
}

func fail(err error) *server.Response { return &server.Response{Error: err.Error()} }

func (sess *rsession) dispatch(req *server.Request) *server.Response {
	r := sess.r
	switch req.Op {
	case "exec":
		return r.execStmt(req)
	case "query":
		return r.query(req)
	case "append":
		return r.append(req)
	case "advance":
		return r.advance(req)
	case "subscribe":
		return sess.subscribe(req)
	case "unsubscribe":
		rs, ok := sess.subs[req.CQ]
		if !ok {
			return fail(fmt.Errorf("router: unknown cq %d", req.CQ))
		}
		rs.close()
		delete(sess.subs, req.CQ)
		return &server.Response{OK: true}
	case "ping":
		return &server.Response{OK: true}
	case "metrics":
		return &server.Response{OK: true, Samples: server.EncodeSamples(r.reg.Gather())}
	case "trace":
		spans := r.tracer.Snapshot()
		out := &server.Response{OK: true, Spans: make([]server.WireSpan, len(spans))}
		for i, sp := range spans {
			out.Spans[i] = server.WireSpan{
				Trace: trace.FormatID(sp.Trace), Stage: string(sp.Stage),
				Stream: sp.Stream, Pipe: sp.Pipe, StartUS: sp.Start,
				DurNS: sp.Dur, Rows: sp.Rows, Slow: sp.Slow,
			}
		}
		return out
	case "replicate", "promote":
		return fail(fmt.Errorf("router: %s is a per-shard operation; connect to the shard server directly", req.Op))
	}
	return fail(fmt.Errorf("router: unknown op %q", req.Op))
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
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		return fail(err)
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return fail(fmt.Errorf("router: query expects a SELECT"))
	}
	base := r.mir.baseOfSelect(sel)
	if base == "" {
		return r.single(0, req)
	}
	plan, err := PlanMerge(sel, r.mir.partColOf(base))
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	resp := r.scatter(req, plan)
	r.scatterHist.ObserveSince(start)
	return resp
}

// scatter fans one query out to every shard and merges the results.
// Downed shards degrade the response to Partial rather than failing it;
// a SQL error from any shard fails the whole query.
func (r *Router) scatter(req *server.Request, plan *MergePlan) *server.Response {
	type result struct {
		resp *server.Response
		err  error
	}
	// An AVG rewrite scatters a different query text (sum+count pairs)
	// than the client sent; the merge step recombines.
	sqlText := req.SQL
	if plan.ScatterSQL != "" {
		sqlText = plan.ScatterSQL
	}
	results := make([]result, len(r.shards))
	var wg sync.WaitGroup
	for i, sc := range r.shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			resp, err := sc.do(&server.Request{Op: req.Op, SQL: sqlText, Args: req.Args})
			results[i] = result{resp, err}
		}(i, sc)
	}
	wg.Wait()

	partial := false
	parts := make([][]types.Row, 0, len(r.shards))
	var columns []server.WireColumn
	for _, res := range results {
		if res.err != nil {
			var down ErrShardDown
			if errors.As(res.err, &down) {
				partial = true
				continue
			}
			return fail(res.err)
		}
		if columns == nil {
			columns = res.resp.Columns
		}
		parts = append(parts, server.Rows(res.resp.Rows))
	}
	if len(parts) == 0 {
		return fail(fmt.Errorf("router: all shards down"))
	}
	rows, err := plan.merge(parts)
	if err != nil {
		return fail(err)
	}
	return &server.Response{OK: true, Columns: outColumns(plan, columns), Partial: partial,
		Rows: server.WireRows(rows)}
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

// subscribe starts a continuous query. Partitioned sources subscribe on
// every live shard and merge window results close-by-close; everything
// else passes through to shard 0.
func (sess *rsession) subscribe(req *server.Request) *server.Response {
	r := sess.r
	stmt, err := sql.Parse(req.SQL)
	if err != nil {
		return fail(err)
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return fail(fmt.Errorf("router: subscribe expects a SELECT"))
	}
	base := r.mir.baseOfSelect(sel)

	sess.nextCQ++
	handle := sess.nextCQ

	if base == "" {
		// Single-shard CQ: passthrough with handle translation.
		cli, err := r.shards[0].client()
		if err != nil {
			return fail(err)
		}
		sub, err := cli.Subscribe(req.SQL)
		if err != nil {
			return fail(err)
		}
		rs := &routedSub{subs: []*client.Subscription{sub}}
		sess.subs[handle] = rs
		go func() {
			for b := range sub.C {
				frame := &server.Response{Batch: true, CQ: handle, Close: b.Close.UnixMicro(), Rows: server.WireRows(b.Rows)}
				select {
				case <-sess.done:
					return
				default:
				}
				if sess.fw.WriteResponse(frame) != nil {
					return
				}
			}
		}()
		return &server.Response{OK: true, CQ: handle, Columns: sub.WireColumns}
	}

	plan, err := PlanMerge(sel, r.mir.partColOf(base))
	if err != nil {
		return fail(err)
	}
	sqlText := req.SQL
	if plan.ScatterSQL != "" {
		sqlText = plan.ScatterSQL
	}
	subs := make([]*client.Subscription, len(r.shards))
	var columns []server.WireColumn
	live := 0
	for i, sc := range r.shards {
		cli, err := sc.client()
		if err != nil {
			continue // downed shard: merge flags partial
		}
		sub, err := cli.Subscribe(sqlText)
		if err != nil {
			for _, s := range subs {
				if s != nil {
					s.Close()
				}
			}
			return fail(err)
		}
		subs[i] = sub
		live++
		if columns == nil {
			columns = sub.WireColumns
		}
	}
	if live == 0 {
		return fail(fmt.Errorf("router: all shards down"))
	}
	rs := &routedSub{subs: subs}
	sess.subs[handle] = rs

	m := newCQMerger(plan, len(r.shards), live < len(r.shards),
		func(closeUS int64, rows []types.Row, partial bool) {
			frame := &server.Response{Batch: true, CQ: handle, Close: closeUS, Partial: partial, Rows: server.WireRows(rows)}
			select {
			case <-sess.done:
				return
			default:
			}
			sess.fw.WriteResponse(frame)
		})
	for i, sub := range subs {
		if sub == nil {
			m.markDead(i)
			continue
		}
		go func(i int, sub *client.Subscription) {
			for b := range sub.C {
				m.onBatch(i, b.Close.UnixMicro(), b.Rows)
			}
			m.markDead(i)
		}(i, sub)
	}
	return &server.Response{OK: true, CQ: handle, Columns: outColumns(plan, columns), Partial: live < len(r.shards)}
}

// outColumns maps the per-shard scatter schema to the client-visible
// schema: passthrough columns keep the shard's name and type; an AVG
// pair collapses to one synthesized DOUBLE column.
func outColumns(plan *MergePlan, scatter []server.WireColumn) []server.WireColumn {
	if plan.Out == nil {
		return scatter
	}
	out := make([]server.WireColumn, len(plan.Out))
	for i, oc := range plan.Out {
		if oc.Count < 0 {
			if oc.Src < len(scatter) {
				out[i] = scatter[oc.Src]
			}
			continue
		}
		out[i] = server.WireColumn{Name: oc.Name, Type: types.TypeFloat.String()}
	}
	return out
}
