package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/trace"
)

// ops is the protocol command set; per-op latency histograms are
// pre-created so dispatch never takes the registry lock.
var ops = []string{"exec", "query", "append", "advance", "subscribe", "unsubscribe", "ping", "metrics", "trace", "replicate", "promote"}

// Backend is what a front door answers behind the session loop. The
// Server owns the rest, once for every backend: the listener, the
// connections, the per-op series, the CQ handle table and the ping,
// metrics, trace, unsubscribe, replicate and promote ops. New serves an
// engine; the shard router (internal/shard) is the other backend.
type Backend interface {
	// Do answers exec, query, append and advance into resp (zeroed), and any
	// op the session does not own with the front door's own unknown-op error.
	// It keeps neither: the session reuses both for its next request.
	Do(req *Request, resp *Response)
	// Subscribe starts a continuous query. It answers with the columns (or
	// an error, and no stop), and hands each window batch to emit until
	// emit reports that the session has ended; stop ends the query. emit
	// is called from a goroutine of the backend's own, never from inside
	// Subscribe: it holds a batch back until the answer is written.
	Subscribe(req *Request, emit func(*Response) bool) (resp *Response, stop func())
	// Metrics is the registry the session's series register in and the
	// metrics op gathers; Tracer is the ring the trace op reads (nil: off).
	Metrics() *metrics.Registry
	Tracer() *trace.Tracer
}

// Server serves one backend over TCP.
type Server struct {
	b   Backend
	lis net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// Log receives structured connection errors; nil silences them.
	Log *slog.Logger

	// Replicate, when set, serves the "replicate" op: after the JSON
	// acknowledgement the raw connection is handed over and streams binary
	// replication frames until it fails (see internal/repl.Primary). The
	// daemon wires it to the engine's hub; a generic hook keeps this
	// package free of a repl dependency.
	Replicate func(conn net.Conn, fromLSN uint64, runID string) error
	// Promote, when set, serves the "promote" op (replica → primary).
	Promote func() error

	// Metric handles, registered in the backend's registry.
	connGauge *metrics.Gauge
	cmdHist   map[string]*metrics.Histogram
	cmdErrs   map[string]*metrics.Counter
}

// New creates a server for the engine; its metrics register in the
// engine's registry so one /metrics endpoint serves both.
func New(eng *streamrel.Engine) *Server { return Over(engine{eng}) }

// Over creates a server for any backend; its metrics register in the
// backend's registry.
func Over(b Backend) *Server {
	s := &Server{
		b:       b,
		conns:   make(map[net.Conn]struct{}),
		cmdHist: make(map[string]*metrics.Histogram),
		cmdErrs: make(map[string]*metrics.Counter),
	}
	reg := b.Metrics()
	s.connGauge = reg.Gauge("streamrel_server_connections", "open client connections")
	for _, op := range ops {
		s.cmdHist[op] = reg.Histogram("streamrel_server_command_seconds",
			"latency of protocol commands, dispatch to response encode", nil,
			metrics.L("op", op))
		s.cmdErrs[op] = reg.Counter("streamrel_server_command_errors_total",
			"protocol commands that returned an error", metrics.L("op", op))
	}
	return s
}

// Listen binds to addr (e.g. "127.0.0.1:7475") and returns the bound
// address — useful with port 0.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	return lis.Addr().String(), nil
}

// Serve accepts connections until Close. Call after Listen; blocks.
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close stops accepting and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.lis != nil {
		return s.lis.Close()
	}
	return nil
}

func (s *Server) logErr(msg string, err error) {
	if s.Log != nil {
		s.Log.Warn(msg, "error", err.Error())
	}
}

// session is one connection's state.
type session struct {
	srv    *Server
	conn   net.Conn
	fw     *FrameWriter // serializes frame writes (responses vs CQ pushes)
	nextCQ int64
	stops  map[int64]func() // by CQ handle
	done   chan struct{}
	// answered, when set, is closed once the response in hand is written:
	// a new subscription's emit waits for it.
	answered chan struct{}
	req      Request  // every frame is decoded into it (Request.decode)
	resp     Response // and answered in it
}

// ServeConn serves one session on conn — a TCP connection Serve accepted, or
// one end of a net.Pipe for a client in the same process — and returns when
// it ends. Close ends it too.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	sess := &session{
		srv:   s,
		conn:  conn,
		fw:    NewFrameWriter(conn, 0),
		stops: make(map[int64]func()),
		done:  make(chan struct{}),
	}
	s.connGauge.Add(1)
	defer func() {
		close(sess.done)
		for _, stop := range sess.stops {
			stop()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connGauge.Add(-1)
	}()
	if err := sess.serve(); err != nil {
		s.logErr("session ended", err)
	}
}

// serve is the session loop: read a frame, decode it, dispatch, answer
// under the request's id. A malformed or oversized frame is answered with
// one error frame and ends the session, since the stream cannot be trusted
// past it; so does a replicate request, whose connection is handed to the
// replication hook. Rows the backend marks unkept (Request.recycle) are
// recycled. nil is an orderly end.
func (sess *session) serve() error {
	s := sess.srv
	fr := NewFrameReader(sess.conn)
	req, resp := &sess.req, &sess.resp
	for {
		if err := fr.Read(req); err != nil {
			var ne net.Error
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
				return nil
			case errors.As(err, &ne):
				return err
			}
			sess.fw.Write(&Response{Error: err.Error()}) // best effort: the close follows either way
			return err
		}
		if req.Op == "replicate" {
			s.serveReplicate(sess, req)
			return nil
		}
		start := time.Now()
		sess.dispatch(req, resp)
		if h := s.cmdHist[req.Op]; h != nil {
			h.ObserveSince(start)
		}
		if resp.Error != "" {
			s.cmdErrs[req.Op].Inc() // nil-safe for unknown ops
		}
		if req.recycle {
			fr.strs.Recycle()
		}
		resp.ID = req.ID
		if err := sess.fw.WriteResponse(resp); err != nil {
			return err
		}
		if sess.answered != nil {
			close(sess.answered)
			sess.answered = nil
		}
		*req, *resp = Request{Op: req.Op, Stream: req.Stream}, Response{} // an idle session holds no rows
	}
}

// serveReplicate acknowledges the request in JSON, then hands the raw
// connection to the replication hook, which streams binary frames for the
// connection's remaining lifetime. The session's read loop ends — a
// replica sends nothing after the replicate request.
func (s *Server) serveReplicate(sess *session, req *Request) {
	start := time.Now()
	if s.Replicate == nil {
		resp := fail(fmt.Errorf("server: replication is not enabled"))
		resp.ID = req.ID
		s.cmdErrs["replicate"].Inc()
		sess.fw.WriteResponse(resp)
		return
	}
	if err := sess.fw.WriteResponse(&Response{ID: req.ID, OK: true}); err != nil {
		return
	}
	err := s.Replicate(sess.conn, req.LSN, req.Run)
	if h := s.cmdHist["replicate"]; h != nil {
		h.ObserveSince(start)
	}
	if err != nil {
		s.cmdErrs["replicate"].Inc()
		s.logErr("replication stream ended", err)
	}
}

func fail(err error) *Response { return &Response{Error: err.Error()} }

// dispatch answers the ops the session owns into resp and hands the rest
// to the backend.
func (sess *session) dispatch(req *Request, resp *Response) {
	s := sess.srv
	switch req.Op {
	case "subscribe":
		handle := sess.nextCQ + 1
		answered := make(chan struct{})
		sess.answered = answered
		r, stop := s.b.Subscribe(req, func(batch *Response) bool {
			batch.Batch, batch.CQ = true, handle
			select { // the client knows the handle once the answer is written
			case <-answered:
			case <-sess.done:
			}
			select {
			case <-sess.done:
				return false
			default:
			}
			return sess.fw.WriteResponse(batch) == nil
		})
		*resp = *r
		if resp.Error == "" {
			sess.nextCQ = handle
			sess.stops[handle] = stop
			resp.CQ = handle
		}

	case "unsubscribe":
		stop, ok := sess.stops[req.CQ]
		if !ok {
			resp.Error = fmt.Sprintf("server: unknown cq %d", req.CQ)
			return
		}
		stop()
		delete(sess.stops, req.CQ)
		resp.OK = true

	case "ping":
		resp.OK = true

	case "promote":
		if s.Promote == nil {
			resp.Error = "server: this server is not a replica"
		} else if err := s.Promote(); err != nil {
			resp.Error = err.Error()
		} else {
			resp.OK = true
		}

	case "metrics":
		resp.OK, resp.Samples = true, EncodeSamples(s.b.Metrics().Gather())

	case "trace":
		resp.OK, resp.Spans = true, trace.WireSpans(s.b.Tracer().Snapshot())

	default:
		s.b.Do(req, resp)
	}
}

// engine is the backend that serves one engine.
type engine struct{ *streamrel.Engine }

func (e engine) Do(req *Request, resp *Response) {
	switch req.Op {
	case "exec":
		res, err := e.ExecArgs(req.SQL, req.Args...)
		if err != nil {
			resp.Error = err.Error()
			return
		}
		resp.OK, resp.Affected = true, res.RowsAffected
		if res.Rows != nil {
			resp.Columns = EncodeSchema(res.Rows.Columns)
			resp.Rows = WireRows(res.Rows.Data)
		}

	case "query":
		rows, err := e.QueryArgs(req.SQL, req.Args...)
		if err != nil {
			resp.Error = err.Error()
			return
		}
		resp.OK, resp.Columns, resp.Rows = true, EncodeSchema(rows.Columns), WireRows(rows.Data)

	case "append":
		rows := Rows(req.Rows)
		var traceID uint64
		if req.Trace != "" {
			// A bad ID only costs the span linkage, never the data.
			traceID, _ = trace.ParseID(req.Trace)
		}
		kept, err := e.AppendBorrowed(traceID, req.Stream, rows)
		req.recycle = !kept && len(rows) > 0
		if err != nil {
			resp.Error = err.Error()
			return
		}
		resp.OK, resp.Affected = true, len(rows)

	case "advance":
		if err := e.AdvanceTime(req.Stream, time.UnixMicro(req.TS).UTC()); err != nil {
			resp.Error = err.Error()
			return
		}
		resp.OK = true

	default:
		resp.Error = fmt.Sprintf("server: unknown op %q", req.Op)
	}
}

func (e engine) Subscribe(req *Request, emit func(*Response) bool) (*Response, func()) {
	cq, err := e.SubscribeArgs(req.SQL, req.Args...)
	if err != nil {
		return fail(err), nil
	}
	// Pump batches to the client until the CQ or the session ends.
	go func() {
		for {
			b, ok := cq.Next()
			if !ok || !emit(&Response{Close: b.Close.UnixMicro(), Rows: WireRows(b.Rows)}) {
				return
			}
		}
	}()
	return &Response{OK: true, Columns: EncodeSchema(cq.Columns)}, cq.Close
}
