package server

import (
	"fmt"
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

// Server serves one engine over TCP.
type Server struct {
	eng *streamrel.Engine
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

	// Metric handles, registered in the engine's registry.
	connGauge *metrics.Gauge
	cmdHist   map[string]*metrics.Histogram
	cmdErrs   map[string]*metrics.Counter
}

// New creates a server for the engine; its metrics register in the
// engine's registry so one /metrics endpoint serves both.
func New(eng *streamrel.Engine) *Server {
	s := &Server{
		eng:     eng,
		conns:   make(map[net.Conn]struct{}),
		cmdHist: make(map[string]*metrics.Histogram),
		cmdErrs: make(map[string]*metrics.Counter),
	}
	reg := eng.Metrics()
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
	cqs    map[int64]*streamrel.CQ
	done   chan struct{}
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
		srv:  s,
		conn: conn,
		fw:   NewFrameWriter(conn, 0),
		cqs:  make(map[int64]*streamrel.CQ),
		done: make(chan struct{}),
	}
	s.connGauge.Add(1)
	defer func() {
		close(sess.done)
		for _, cq := range sess.cqs {
			cq.Close()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connGauge.Add(-1)
	}()

	err := ServeFrames(conn, sess.fw, func(req *Request) *Response {
		if req.Op == "replicate" {
			s.serveReplicate(sess, req)
			return nil
		}
		start := time.Now()
		resp := sess.dispatch(req)
		if h := s.cmdHist[req.Op]; h != nil {
			h.ObserveSince(start)
		}
		if resp.Error != "" {
			s.cmdErrs[req.Op].Inc() // nil-safe for unknown ops
		}
		return resp
	})
	if err != nil {
		s.logErr("session ended", err)
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

func (sess *session) dispatch(req *Request) *Response {
	eng := sess.srv.eng
	args := req.Args
	switch req.Op {
	case "exec":
		res, err := eng.ExecArgs(req.SQL, args...)
		if err != nil {
			return fail(err)
		}
		out := &Response{OK: true, Affected: res.RowsAffected}
		if res.Rows != nil {
			out.Columns = EncodeSchema(res.Rows.Columns)
			out.Rows = WireRows(res.Rows.Data)
		}
		return out

	case "query":
		rows, err := eng.QueryArgs(req.SQL, args...)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Columns: EncodeSchema(rows.Columns), Rows: WireRows(rows.Data)}

	case "append":
		rows := Rows(req.Rows)
		var traceID uint64
		if req.Trace != "" {
			// A bad ID only costs the span linkage, never the data.
			traceID, _ = trace.ParseID(req.Trace)
		}
		kept, err := eng.AppendBorrowed(traceID, req.Stream, rows)
		req.recycle = !kept && len(rows) > 0
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Affected: len(rows)}

	case "advance":
		if err := eng.AdvanceTime(req.Stream, time.UnixMicro(req.TS).UTC()); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case "subscribe":
		cq, err := eng.SubscribeArgs(req.SQL, args...)
		if err != nil {
			return fail(err)
		}
		sess.nextCQ++
		handle := sess.nextCQ
		sess.cqs[handle] = cq
		// Pump batches to the client until the CQ or connection closes.
		go func() {
			for {
				b, ok := cq.Next()
				if !ok {
					return
				}
				frame := &Response{Batch: true, CQ: handle, Close: b.Close.UnixMicro(), Rows: WireRows(b.Rows)}
				select {
				case <-sess.done:
					return
				default:
				}
				if err := sess.fw.WriteResponse(frame); err != nil {
					return
				}
			}
		}()
		return &Response{OK: true, CQ: handle, Columns: EncodeSchema(cq.Columns)}

	case "unsubscribe":
		cq, ok := sess.cqs[req.CQ]
		if !ok {
			return fail(fmt.Errorf("server: unknown cq %d", req.CQ))
		}
		cq.Close()
		delete(sess.cqs, req.CQ)
		return &Response{OK: true}

	case "ping":
		return &Response{OK: true}

	case "promote":
		if sess.srv.Promote == nil {
			return fail(fmt.Errorf("server: this server is not a replica"))
		}
		if err := sess.srv.Promote(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case "metrics":
		return &Response{OK: true, Samples: EncodeSamples(eng.Metrics().Gather())}

	case "trace":
		spans := eng.Traces()
		out := &Response{OK: true, Spans: make([]WireSpan, len(spans))}
		for i, sp := range spans {
			out.Spans[i] = WireSpan{
				Trace:   trace.FormatID(sp.Trace),
				Stage:   string(sp.Stage),
				Stream:  sp.Stream,
				Pipe:    sp.Pipe,
				StartUS: sp.Start,
				DurNS:   sp.Dur,
				Rows:    sp.Rows,
				Slow:    sp.Slow,
				Mode:    sp.Mode,
			}
		}
		return out
	}
	return fail(fmt.Errorf("server: unknown op %q", req.Op))
}
