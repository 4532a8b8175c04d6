package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/trace"
	"streamrel/replica"
)

// epoch anchors the benchmark's monotonic clock; nowNs is time since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// Phases a batch or a window can belong to.
const (
	phaseWarm uint8 = iota
	phaseSat
	phasePaced
	phasePass // the row-bounded pass of a --trace 1 run
)

// cqSpec is one continuous query the benchmark subscribes to, always of
// shape (key, count(*), sum(x)) over a time window of one stream.
type cqSpec struct {
	name    string
	class   string // what EXPLAIN should say at the seed: reexec, plan-shared, incremental
	sql     string
	stream  *streamSpec
	visible int64 // µs
	advance int64 // µs
	ref     *refInput
}

// batchRec logs one append: the first row's index, when it was due (paced
// phase only), when it was sent and acknowledged. Times are nowNs values.
type batchRec struct {
	g      int64
	dueNs  int64
	sendNs int64
	ackNs  int64
	phase  uint8
	ok     bool
}

// producer is the single writer of one stream.
type producer struct {
	id   int
	spec *streamSpec
	// send appends one batch. traceID 0 is an ordinary append; otherwise the
	// batch carries that trace ID into the engine and sp receives the
	// benchmark-side spans.
	send func(traceID uint64, rows []streamrel.Row, sp *spanLog) error

	g         int64 // next row index
	rows      []streamrel.Row
	log       []batchRec
	attempted int64
	failed    int64
	lastErr   error
	genNs     int64 // time spent stamping rows, all phases
	spans     spanLog
	seq       uint64
}

// appendOnce stamps and sends the next batch and logs it.
func (p *producer) appendOnce(phase uint8, dueNs int64, traced bool) {
	t0 := nowNs()
	p.spec.fill(p.rows, p.g)
	t1 := nowNs()
	p.genNs += t1 - t0
	var id uint64
	var sp *spanLog
	if traced {
		p.seq++
		id = uint64(p.id+1)<<40 | p.seq
		sp = &p.spans
	}
	err := p.send(id, p.rows, sp)
	t2 := nowNs()
	p.attempted++
	if err != nil {
		p.failed++
		p.lastErr = err
	}
	p.log = append(p.log, batchRec{g: p.g, dueNs: dueNs, sendNs: t1, ackNs: t2, phase: phase, ok: err == nil})
	p.g += int64(len(p.rows))
}

// closedLoop appends back to back — the next batch after the previous
// ack — until rows rows have been sent. The work is fixed, not the time, so
// that memory, table sizes and transcripts are the same on every run.
func (p *producer) closedLoop(phase uint8, rows int64, traced bool) {
	for end := p.g + rows; p.g < end; {
		p.appendOnce(phase, 0, traced)
	}
}

// pacedLoop is the open loop: batch j is due at start + j*interval whether
// or not the previous one has been acknowledged, and is timed from when it
// was due. Every batch due within dur is sent, so the phase's work is the
// same on every run; a system that cannot keep up makes the phase run long,
// and the rows still unsent when dur had passed are returned as backlog.
func (p *producer) pacedLoop(phase uint8, start time.Time, dur time.Duration, rowsPerSec float64) (backlogRows int64) {
	interval := time.Duration(float64(len(p.rows)) / rowsPerSec * float64(time.Second))
	end := start.Add(dur)
	for due := start; due.Before(end); due = due.Add(interval) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if !time.Now().Before(end) {
			backlogRows += int64(len(p.rows))
		}
		p.appendOnce(phase, int64(due.Sub(epoch)), false)
	}
	return backlogRows
}

// wireSend appends over a client connection. Traced batches are encoded by
// the benchmark (exactly what client.Append does) so that the trace ID can
// ride the request.
func wireSend(cl *client.Client, stream string) func(uint64, []streamrel.Row, *spanLog) error {
	return func(id uint64, rows []streamrel.Row, sp *spanLog) error {
		if id == 0 {
			return cl.Append(stream, rows...)
		}
		t0 := time.Now()
		err := cl.AppendWire(stream, encodeRows(rows), trace.FormatID(id))
		sp.add(id, stageAppend, stream, t0, time.Now(), len(rows))
		return err
	}
}

// encodeRows puts rows in wire form, as client.Append does.
func encodeRows(rows []streamrel.Row) [][]server.WireValue {
	wire := make([][]server.WireValue, len(rows))
	for i, r := range rows {
		wire[i] = server.EncodeRow(r)
	}
	return wire
}

// localSend appends in process.
func localSend(eng *streamrel.Engine, stream string) func(uint64, []streamrel.Row, *spanLog) error {
	return func(id uint64, rows []streamrel.Row, sp *spanLog) error {
		if id == 0 {
			return eng.Append(stream, rows...)
		}
		t0 := time.Now()
		err := eng.AppendTraced(id, stream, rows...)
		sp.add(id, stageAppend, stream, t0, time.Now(), len(rows))
		return err
	}
}

// subscriber receives one CQ's windows and reduces each to a window record
// as it arrives.
type subscriber struct {
	cq   *cqSpec
	next func() (closeUs int64, rows []streamrel.Row, ok bool)

	mu     sync.Mutex
	got    []window
	recvNs []int64
	n      atomic.Int64
	rows   atomic.Int64
	done   chan struct{}
}

func (s *subscriber) run() {
	defer close(s.done)
	for {
		closeUs, rows, ok := s.next()
		if !ok {
			return
		}
		t := nowNs()
		w := reduceWindow(closeUs, rows)
		s.mu.Lock()
		s.got = append(s.got, w)
		s.recvNs = append(s.recvNs, t)
		s.mu.Unlock()
		s.rows.Add(int64(len(rows)))
		s.n.Add(1)
	}
}

// report is one snapshot query of report_mixed's reader cycle.
type report struct {
	name string
	sql  string
	args func(cycle int) []streamrel.Value
}

// reader issues the reports in rotation on its own connection.
type reader struct {
	cl      *client.Client
	reports []report

	stop      atomic.Bool
	done      chan struct{}
	latNs     []int64 // per query: from when it was due (paced) or sent (closed loop)
	endNs     []int64
	attempted int64
	failed    int64
	lastErr   error
	spans     spanLog
}

// run issues queries until stopped or, when maxQueries > 0, exactly that
// many. With perSec > 0 it is an open loop: query k is due at start +
// k/perSec and timed from then; otherwise each query follows the last.
func (r *reader) run(maxQueries int, perSec float64, traced bool) {
	defer close(r.done)
	start := time.Now()
	for k := 0; maxQueries == 0 || k < maxQueries; k++ {
		from := time.Now()
		if perSec > 0 {
			from = start.Add(time.Duration(float64(k) / perSec * float64(time.Second)))
			if wait := time.Until(from); wait > 0 {
				time.Sleep(wait)
			}
		}
		if r.stop.Load() {
			return
		}
		rep := r.reports[k%len(r.reports)]
		var args []streamrel.Value
		if rep.args != nil {
			args = rep.args(k / len(r.reports))
		}
		t0 := time.Now()
		rows, err := r.cl.Query(rep.sql, args...)
		t1 := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			r.lastErr = err
		} else if len(rows.Data) == 0 {
			r.failed++
			r.lastErr = fmt.Errorf("report %s returned no rows", rep.name)
		}
		r.latNs = append(r.latNs, int64(t1.Sub(from)))
		r.endNs = append(r.endNs, int64(t1.Sub(epoch)))
		if traced {
			r.spans.add(0, stageQuery, rep.name, t0, t1, 0)
		}
	}
}

// scanQuery is a snapshot query that reads every row of one table.
type scanQuery struct{ sql, table string }

// explainRec keeps a CQ's (or report's) EXPLAIN strategy lines verbatim.
type explainRec struct {
	Name  string   `json:"name"`
	Class string   `json:"class,omitempty"`
	Lines []string `json:"lines"`
}

// rig is one workload set up and ready to take load: engine, and where the
// workload has them server, client connections, replica, subscribers and
// reader — all inside this process.
type rig struct {
	eng      *streamrel.Engine
	parallel bool // CQs run on the scheduler pool, off the producer's path

	srv        *server.Server
	clients    []*client.Client
	replicaEng *streamrel.Engine
	rep        *replica.Replica

	producers []*producer
	subs      []*subscriber
	reader    *reader
	explain   []explainRec

	// scanQueries are in-process snapshot queries the exec probe times, each
	// with the table whose rows it scans; lookup is the indexed point query
	// the storage probe times.
	scanQueries []scanQuery
	lookup      *report

	// verify runs the workload's own end-of-run checks (archive counts,
	// reports against the in-process engine) and returns attempted and
	// failed operations.
	verify func() (attempted, failed int64, notes []string)

	closers []func() // in-process CQ handles, closed to end their subscribers
	dir     string
	closed  bool
}

// rigOptions vary a rig between the untraced and the traced pass.
type rigOptions struct {
	traced bool
	tmp    string // parent for data directories
}

func (o rigOptions) engineConfig(cfg streamrel.Config) streamrel.Config {
	if o.traced {
		cfg.TraceSampleEvery = 1
		cfg.TraceRingSpans = tracedRingSpans
	}
	return cfg
}

// tracedRingSpans is the enlarged span ring of the traced pass: every batch
// is sampled, and mem_fanout records some forty spans per batch.
const tracedRingSpans = 1 << 20

func (r *rig) addProducer(spec *streamSpec, send func(uint64, []streamrel.Row, *spanLog) error) {
	r.producers = append(r.producers, &producer{
		id:   len(r.producers),
		spec: spec,
		send: send,
		rows: make([]streamrel.Row, batchRows),
		log:  make([]batchRec, 0, 1<<14),
	})
}

func (r *rig) startSubscriber(cq *cqSpec, next func() (int64, []streamrel.Row, bool)) {
	s := &subscriber{cq: cq, next: next, done: make(chan struct{})}
	r.subs = append(r.subs, s)
	go s.run()
}

// subscribeLocal starts cq in process.
func (r *rig) subscribeLocal(cq *cqSpec) error {
	h, err := r.eng.Subscribe(cq.sql)
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", cq.name, err)
	}
	r.closers = append(r.closers, h.Close)
	r.startSubscriber(cq, func() (int64, []streamrel.Row, bool) {
		b, ok := h.Next()
		return b.Close.UnixMicro(), b.Rows, ok
	})
	return nil
}

// subscribeWire starts cq on a client connection.
func (r *rig) subscribeWire(cl *client.Client, cq *cqSpec) error {
	sub, err := cl.Subscribe(cq.sql)
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", cq.name, err)
	}
	r.startSubscriber(cq, func() (int64, []streamrel.Row, bool) {
		b, ok := <-sub.C
		return b.Close.UnixMicro(), b.Rows, ok
	})
	return nil
}

// serve puts the rig's engine behind a server on a loopback port the kernel
// picks and returns its address.
func (r *rig) serve() (string, error) {
	r.srv = server.New(r.eng)
	if hub := r.eng.Repl(); hub != nil {
		r.srv.Replicate = hub.ServeConn
	}
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go r.srv.Serve() //nolint:errcheck // Serve returns nil after Close
	return addr, nil
}

func (r *rig) dial(addr string) (*client.Client, error) {
	cl, err := client.DialOptions(addr, client.Options{RPCTimeout: 60 * time.Second})
	if err != nil {
		return nil, err
	}
	r.clients = append(r.clients, cl)
	return cl, nil
}

// recordExplain stores the strategy lines of EXPLAIN for sql: everything
// but the header and the output schema.
func (r *rig) recordExplain(name, class, sql string) error {
	res, err := r.eng.Exec("EXPLAIN " + sql)
	if err != nil {
		return fmt.Errorf("explain %s: %w", name, err)
	}
	rec := explainRec{Name: name, Class: class}
	for _, row := range res.Rows.Data {
		rec.Lines = append(rec.Lines, row[0].Str())
	}
	r.explain = append(r.explain, rec)
	return nil
}

// close tears the rig down in dependency order and removes its data
// directory. It is safe to call twice.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.reader != nil {
		r.reader.stop.Store(true)
	}
	if r.rep != nil {
		r.rep.Stop()
	}
	for _, c := range r.closers {
		c()
	}
	for _, cl := range r.clients {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.eng != nil {
		r.eng.Close()
	}
	if r.replicaEng != nil {
		r.replicaEng.Close()
	}
	for _, s := range r.subs {
		<-s.done
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
