// Package client is the Go client for a streamrel server: Exec/Query for
// SQL, Append/Advance for stream ingestion, and Subscribe for continuous
// queries whose window batches arrive on a channel. A row of a result shares
// a block of up to 4 096 rows with its neighbours, so keeping it keeps them.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/repl"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

// Value, Row, Column mirror the engine's public value types.
type (
	// Value is a single SQL value.
	Value = types.Datum
	// Row is a tuple of values.
	Row = types.Row
	// Column names and types one result column.
	Column = types.Column
)

// Rows is a materialized query result. Partial marks a scatter-gathered
// result from a shard router that is missing one or more downed shards'
// contributions (single-node servers never set it).
type Rows struct {
	Columns []server.WireColumn // as the response decoded them: names and type names
	Data    []Row
	Partial bool
}

// Batch is one continuous-query window result. Partial has the same
// meaning as Rows.Partial: some shards' window contributions are missing.
// Err, when set, says the server fired the window at Close but could not
// send it (a result over server.MaxFrameBytes): Rows is empty, and the
// subscription goes on.
type Batch struct {
	Close   time.Time
	Rows    []Row
	Partial bool
	Err     error
}

// Subscription is a running continuous query on the server. Batches
// arrive on C; Close terminates it. WireColumns preserves the schema in
// wire form (with type names) for consumers that re-encode frames, such
// as the shard router.
type Subscription struct {
	Columns     []Column
	WireColumns []server.WireColumn
	C           <-chan Batch

	c      *Client
	handle int64
	ch     chan Batch
	sendMu sync.Mutex // serializes readLoop's batch sends with close(ch)
	closed bool       // guarded by sendMu
}

// Close stops the continuous query.
func (s *Subscription) Close() error {
	err := s.c.roundTrip(server.Request{Op: "unsubscribe", CQ: s.handle}, nil)
	s.c.mu.Lock()
	_, ok := s.c.subs[s.handle]
	delete(s.c.subs, s.handle)
	s.c.mu.Unlock()
	if ok {
		// Removed from subs first, so readLoop starts no new sends for
		// this handle; sendMu waits out any send already in flight.
		s.sendMu.Lock()
		s.closed = true
		close(s.ch)
		s.sendMu.Unlock()
	}
	return err
}

// Options configures connection and per-request timeouts.
type Options struct {
	// DialTimeout bounds connection establishment (net.Dialer.Timeout);
	// 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// RPCTimeout bounds each request: the write gets a deadline and the
	// response wait a timer, so a hung server fails the call instead of
	// blocking forever. It does not apply to subscription batches (which
	// arrive whenever windows close) or to replication streams (which set
	// their own read deadlines). 0 disables it.
	RPCTimeout time.Duration
}

// DefaultDialTimeout bounds Dial when Options.DialTimeout is zero.
const DefaultDialTimeout = 10 * time.Second

// ErrConnLost is wrapped by every failure of the connection itself — a
// closed client, an ended read loop, a failed write, a request timeout — so
// errors.Is tells it from an error the server answered with.
var ErrConnLost = errors.New("client: connection lost")

// Client is a connection to a streamrel server. Safe for concurrent use.
type Client struct {
	conn   net.Conn
	fw     *server.FrameWriter // serializes request writes, under RPCTimeout
	addr   string
	opts   Options
	nextID atomic.Int64

	mu      sync.Mutex
	pending map[int64]*call
	subs    map[int64]*Subscription
	closed  bool
	readErr error
	calls   []*call   // calls whose response was read, for the next requests
	timers  sync.Pool // roundTrip's RPCTimeout timers, stopped and drained
}

// call is one request in flight and the response readLoop copies in for it.
// A call goes back to Client.calls once its response has been read and let
// go of, so a warm client sends a request and waits for its answer without
// allocating. One that timed out or lost its connection is dropped: a late
// response can still land in it.
type call struct {
	req  server.Request
	resp server.Response
	done chan struct{} // a send: resp is in; closed: the connection ended
}

// Dial connects to a server with default timeouts.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a server with explicit timeouts.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := dialRaw(addr, opts)
	if err != nil {
		return nil, err
	}
	return New(conn, addr, opts), nil
}

// New speaks the protocol over conn, which the client now owns: a connection
// already open to a server at addr (one end of a net.Pipe whose other end a
// server.Server serves, for a client in the same process). Replicate dials
// addr again.
func New(conn net.Conn, addr string, opts Options) *Client {
	c := &Client{
		conn:    conn,
		fw:      server.NewFrameWriter(conn, opts.RPCTimeout),
		addr:    addr,
		opts:    opts,
		pending: make(map[int64]*call),
		subs:    make(map[int64]*Subscription),
	}
	go c.readLoop()
	return c
}

func dialRaw(addr string, opts Options) (net.Conn, error) {
	dt := opts.DialTimeout
	if dt <= 0 {
		dt = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: dt}
	return d.Dial("tcp", addr)
}

// Close terminates the connection; outstanding calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	fr := server.NewFrameReader(c.conn)
	var resp server.Response // decoded into for every frame; a call gets a copy
	for {
		resp = server.Response{} // nothing of the last frame is held while waiting
		if err := fr.Read(&resp); err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, cl := range c.pending {
				close(cl.done)
				delete(c.pending, id)
			}
			for h, sub := range c.subs {
				close(sub.ch)
				delete(c.subs, h)
			}
			c.mu.Unlock()
			return
		}
		if resp.Batch {
			c.mu.Lock()
			sub := c.subs[resp.CQ]
			c.mu.Unlock()
			if sub != nil {
				// A batch the server could not encode arrives as an error frame
				// under the handle: the window closed, and its rows are lost.
				b := Batch{Close: time.UnixMicro(resp.Close).UTC(), Rows: server.Rows(resp.Rows), Partial: resp.Partial}
				if resp.Error != "" {
					b.Err = errors.New(resp.Error)
				}
				sub.sendMu.Lock()
				if !sub.closed {
					sub.ch <- b
				}
				sub.sendMu.Unlock()
			}
			continue
		}
		c.mu.Lock()
		cl := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		if cl != nil && cl.req.Op == "subscribe" && resp.Error == "" {
			// Registered before the next frame is read: the server may send
			// the subscription's first batch right after the answer.
			c.subs[resp.CQ] = newSubscription(c, &resp)
		}
		c.mu.Unlock()
		if cl != nil {
			cl.resp = resp
			cl.done <- struct{}{}
		}
	}
}

// roundTrip sends req and waits for its response, which it hands to read (if
// not nil) before the call is reused: read must not keep the *Response. The
// frame is encoded and written outside c.mu, so goroutines sharing the client
// (the shard router's per-shard connection is exactly that) contend only on
// the socket write, not on JSON encoding.
func (c *Client) roundTrip(req server.Request, read func(*server.Response)) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: client closed", ErrConnLost)
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrConnLost, err)
	}
	var cl *call
	if n := len(c.calls); n > 0 {
		cl, c.calls = c.calls[n-1], c.calls[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	cl.req = req
	cl.req.ID = c.nextID.Add(1)
	c.pending[cl.req.ID] = cl
	c.mu.Unlock()

	if err := c.fw.Write(&cl.req); err != nil {
		c.mu.Lock()
		delete(c.pending, cl.req.ID)
		c.mu.Unlock()
		if _, ok := err.(*server.EncodeError); !ok { // an EncodeError sent nothing
			err = fmt.Errorf("%w: %w", ErrConnLost, err)
		}
		return err
	}

	var timeout <-chan time.Time
	if c.opts.RPCTimeout > 0 {
		t, _ := c.timers.Get().(*time.Timer)
		if t == nil {
			t = time.NewTimer(c.opts.RPCTimeout)
		} else {
			t.Reset(c.opts.RPCTimeout)
		}
		defer c.putTimer(t)
		timeout = t.C
	}
	select {
	case _, ok := <-cl.done:
		if !ok {
			return fmt.Errorf("%w: connection closed", ErrConnLost)
		}
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, cl.req.ID)
		c.mu.Unlock()
		return fmt.Errorf("%w: request timed out after %v", ErrConnLost, c.opts.RPCTimeout)
	}
	var err error
	if cl.resp.Error != "" {
		err = errors.New(cl.resp.Error)
	} else if read != nil {
		read(&cl.resp)
	}
	cl.req, cl.resp = server.Request{}, server.Response{}
	c.mu.Lock()
	c.calls = append(c.calls, cl)
	c.mu.Unlock()
	return err
}

// putTimer pools a roundTrip timer, drained: under go 1.22's timer semantics
// one that fired while the response won keeps its tick past Reset.
func (c *Client) putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	c.timers.Put(t)
}

// Exec runs a DDL/DML statement with optional $n parameters and returns
// the affected row count.
func (c *Client) Exec(sql string, args ...Value) (n int, err error) {
	err = c.roundTrip(server.Request{Op: "exec", SQL: sql, Args: args}, func(resp *server.Response) { n = resp.Affected })
	return n, err
}

// Query runs a snapshot SELECT with optional $n parameters.
func (c *Client) Query(sql string, args ...Value) (rows *Rows, err error) {
	err = c.roundTrip(server.Request{Op: "query", SQL: sql, Args: args}, func(resp *server.Response) { rows = decodeRows(resp) })
	return rows, err
}

func decodeRows(resp *server.Response) *Rows {
	out := &Rows{Columns: resp.Columns, Partial: resp.Partial}
	if len(resp.Rows) > 0 {
		out.Data = server.Rows(resp.Rows)
	}
	return out
}

// columns names a response's columns in one slice, nil for none.
func columns(wire []server.WireColumn) []Column {
	if len(wire) == 0 {
		return nil
	}
	out := make([]Column, len(wire))
	for i, wc := range wire {
		out[i].Name = wc.Name
	}
	return out
}

// Append pushes rows into a stream.
func (c *Client) Append(stream string, rows ...Row) error {
	return c.AppendWire(stream, server.WireRows(rows), "")
}

// Do sends one raw protocol request and returns the raw response, which is
// the caller's. It is the escape hatch for proxies (the shard router) that
// forward wire rows without decoding them; normal applications use the typed
// methods, and a subscribe goes through Subscribe. The client assigns the
// request its ID.
func (c *Client) Do(req *server.Request) (resp *server.Response, err error) {
	err = c.roundTrip(*req, func(r *server.Response) {
		own := *r
		resp = &own
	})
	return resp, err
}

// AppendWire pushes already-encoded rows into a stream, optionally
// carrying a trace ID (16-hex) across the hop. It avoids the
// decode/re-encode cost of Append for callers that hold wire rows.
func (c *Client) AppendWire(stream string, rows [][]server.WireValue, traceID string) error {
	return c.roundTrip(server.Request{Op: "append", Stream: stream, Rows: rows, Trace: traceID}, nil)
}

// Advance delivers a heartbeat moving the stream's clock to ts.
func (c *Client) Advance(stream string, ts time.Time) error {
	return c.roundTrip(server.Request{Op: "advance", Stream: stream, TS: ts.UnixMicro()}, nil)
}

// Subscribe starts a continuous query (with optional $n parameters);
// batches arrive on the returned subscription's channel.
func (c *Client) Subscribe(sql string, args ...Value) (*Subscription, error) {
	var handle int64
	err := c.roundTrip(server.Request{Op: "subscribe", SQL: sql, Args: args}, func(resp *server.Response) { handle = resp.CQ })
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sub := c.subs[handle]; sub != nil { // readLoop registered it with the answer
		return sub, nil
	}
	return nil, fmt.Errorf("%w: connection closed", ErrConnLost)
}

// newSubscription makes the subscription a successful subscribe answered.
func newSubscription(c *Client, resp *server.Response) *Subscription {
	ch := make(chan Batch, 1024)
	return &Subscription{c: c, handle: resp.CQ, ch: ch, C: ch, Columns: columns(resp.Columns), WireColumns: resp.Columns}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	return c.roundTrip(server.Request{Op: "ping"}, nil)
}

// Promote asks a replica server to promote itself to primary; subsequent
// writes against it succeed.
func (c *Client) Promote() error {
	return c.roundTrip(server.Request{Op: "promote"}, nil)
}

// ReplStream is an open replication stream: after the JSON handshake the
// connection carries binary frames (internal/repl's format), read through
// R; Conn is exposed for deadlines, and the caller owns Close.
type ReplStream struct {
	Conn net.Conn
	R    *repl.Reader
}

// Close terminates the stream.
func (s *ReplStream) Close() error { return s.Conn.Close() }

// Replicate opens a replication stream on a dedicated connection,
// resuming after fromLSN under primary run ID runID ("" and 0 for a
// fresh replica — the primary then starts with a full snapshot).
func (c *Client) Replicate(fromLSN uint64, runID string) (*ReplStream, error) {
	conn, err := dialRaw(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	if c.opts.RPCTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opts.RPCTimeout))
	}
	// The binary frames that follow the handshake are read through the
	// same buffer, so nothing the primary sent early is lost.
	br := bufio.NewReaderSize(conn, 1<<20)
	var resp server.Response
	err = server.NewFrameWriter(conn, 0).Write(&server.Request{ID: 1, Op: "replicate", LSN: fromLSN, Run: runID})
	if err == nil {
		err = server.NewFrameReader(br).Read(&resp)
	}
	if err == nil && resp.Error != "" {
		err = fmt.Errorf("%s", resp.Error)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &ReplStream{Conn: conn, R: repl.NewReader(br)}, nil
}

// Stats returns the server's metrics as (metric, value) rows: the
// metrics.Flatten view of what the "metrics" op carries, a metric being
// the row's name followed by its labels.
func (c *Client) Stats() (*Rows, error) {
	var samples []server.WireSample
	if err := c.roundTrip(server.Request{Op: "metrics"}, func(resp *server.Response) { samples = resp.Samples }); err != nil {
		return nil, err
	}
	out := &Rows{Columns: []server.WireColumn{{Name: "metric"}, {Name: "value"}}}
	for _, p := range metrics.Flatten(server.DecodeSamples(samples)) {
		out.Data = append(out.Data, Row{types.NewString(p.Name + p.Labels), types.NewFloat(p.Value)})
	}
	return out, nil
}

// Span is one completed trace span from the server's trace ring; spans
// sharing a Trace ID form one batch's journey through the engine.
type Span struct {
	// Trace is the 16-hex-digit trace ID.
	Trace string
	// Stage is the hop name (ingest, enqueue, pickup, window-fire,
	// cq-deliver, wal-append, wal-fsync, replica-apply).
	Stage string
	// Stream is the stream (or table) the hop touched.
	Stream string
	// Pipe identifies the pipeline, 0 when not applicable.
	Pipe int64
	// Start is the hop's wall-clock start.
	Start time.Time
	// Dur is the hop's duration.
	Dur time.Duration
	// Rows is the batch or result size at this hop.
	Rows int
	// Slow marks spans force-recorded by slow-fire detection.
	Slow bool
	// Mode tags window-fire spans with the fire strategy ("incremental",
	// "reexec"); empty on other stages.
	Mode string
}

// Traces returns the server's completed trace spans, oldest first. Empty
// when tracing is disabled on the server.
func (c *Client) Traces() ([]Span, error) {
	var spans []server.WireSpan
	if err := c.roundTrip(server.Request{Op: "trace"}, func(resp *server.Response) { spans = resp.Spans }); err != nil {
		return nil, err
	}
	out := make([]Span, len(spans))
	for i, ws := range spans {
		out[i] = Span{
			Trace:  ws.Trace,
			Stage:  string(ws.Stage),
			Stream: ws.Stream,
			Pipe:   ws.Pipe,
			Start:  time.UnixMicro(ws.StartUS).UTC(),
			Dur:    time.Duration(ws.DurNS),
			Rows:   ws.Rows,
			Slow:   ws.Slow,
			Mode:   ws.Mode,
		}
	}
	return out, nil
}
