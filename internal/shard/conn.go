package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/server"
)

// ErrShardDown reports an operation that needed a shard whose connection
// is currently down. Scatter ops downgrade to partial results instead of
// failing; single-shard ops surface this error to the client.
type ErrShardDown struct {
	Shard int
	Addr  string
}

func (e ErrShardDown) Error() string {
	return fmt.Sprintf("shard: shard %d (%s) is down", e.Shard, e.Addr)
}

// pendingAppend is one producer's sub-batch waiting in a shard's
// coalescing queue.
type pendingAppend struct {
	stream string
	rows   [][]server.WireValue
	trace  string
	done   chan error
}

// maxCoalescedRows caps how many rows one coalesced append may carry so
// a burst cannot build an unboundedly large wire frame.
const maxCoalescedRows = 16384

// shardConn manages the router's connection to one shard: health with
// reconnect/backoff, a coalescing append queue (many producers' sub-
// batches for the same stream merge into one wire append — one WAL
// group commit on the shard), and per-shard metrics.
type shardConn struct {
	id   int
	addr string
	opts client.Options
	log  *slog.Logger

	mu     sync.Mutex
	cli    *client.Client // nil while down
	queue  []pendingAppend
	wake   chan struct{}
	closed bool

	rowsRouted  *metrics.Counter
	sendHist    *metrics.Histogram
	coalesceH   *metrics.Histogram
	errsCtr     *metrics.Counter
	reconnCtr   *metrics.Counter
	upGauge     *metrics.Gauge
	unregisterQ func()
}

func newShardConn(id int, addr string, opts client.Options, reg *metrics.Registry, log *slog.Logger) *shardConn {
	sc := &shardConn{
		id:   id,
		addr: addr,
		opts: opts,
		log:  log,
		wake: make(chan struct{}, 1),
	}
	l := metrics.L("shard", strconv.Itoa(id))
	sc.rowsRouted = reg.Counter("streamrel_router_routed_rows_total",
		"rows routed to this shard by partition key", l)
	sc.sendHist = reg.Histogram("streamrel_router_send_seconds",
		"latency of one coalesced append round-trip to this shard", nil, l)
	sc.coalesceH = reg.Histogram("streamrel_router_coalesced_batches",
		"producer sub-batches merged into one shard append", nil, l)
	sc.errsCtr = reg.Counter("streamrel_router_shard_errors_total",
		"operations against this shard that failed", l)
	sc.reconnCtr = reg.Counter("streamrel_router_reconnects_total",
		"successful reconnects to this shard", l)
	sc.upGauge = reg.Gauge("streamrel_router_shard_up",
		"1 while the shard connection is healthy", l)
	sc.unregisterQ = reg.GaugeFunc("streamrel_router_queue_depth",
		"producer sub-batches waiting in this shard's coalescing queue",
		func() float64 {
			sc.mu.Lock()
			n := len(sc.queue)
			sc.mu.Unlock()
			return float64(n)
		}, l)
	go sc.sender()
	return sc
}

// connect dials until it succeeds or the conn is closed; backoff with
// jitter between attempts. Returns false when closed.
func (sc *shardConn) connect() bool {
	backoff := 100 * time.Millisecond
	for {
		sc.mu.Lock()
		if sc.closed {
			sc.mu.Unlock()
			return false
		}
		sc.mu.Unlock()
		cli, err := client.DialOptions(sc.addr, sc.opts)
		if err == nil {
			if err = cli.Ping(); err == nil {
				sc.mu.Lock()
				sc.cli = cli
				sc.mu.Unlock()
				sc.upGauge.Set(1)
				sc.reconnCtr.Inc()
				if sc.log != nil {
					sc.log.Info("shard connected", "shard", sc.id, "addr", sc.addr)
				}
				return true
			}
			cli.Close()
		}
		if sc.log != nil {
			sc.log.Warn("shard dial failed", "shard", sc.id, "addr", sc.addr, "error", err.Error())
		}
		time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2)+1)))
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// client returns the live client or an ErrShardDown.
func (sc *shardConn) client() (*client.Client, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.cli == nil {
		return nil, ErrShardDown{Shard: sc.id, Addr: sc.addr}
	}
	return sc.cli, nil
}

// up reports current health.
func (sc *shardConn) up() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.cli != nil
}

// fail marks the connection dead after an I/O error and kicks the
// background reconnect. Call with the client that failed, so a
// concurrent fail for an already replaced connection is a no-op.
func (sc *shardConn) fail(failed *client.Client, err error) {
	sc.errsCtr.Inc()
	sc.mu.Lock()
	if sc.cli == nil || (failed != nil && sc.cli != failed) {
		sc.mu.Unlock()
		return
	}
	dead := sc.cli
	sc.cli = nil
	sc.mu.Unlock()
	sc.upGauge.Set(0)
	dead.Close()
	if sc.log != nil {
		sc.log.Warn("shard connection lost", "shard", sc.id, "addr", sc.addr, "error", err.Error())
	}
	go func() {
		if sc.connect() {
			// Flush anything queued while down.
			select {
			case sc.wake <- struct{}{}:
			default:
			}
		}
	}()
}

// do runs one non-append round-trip against the shard, turning
// connection loss into ErrShardDown.
func (sc *shardConn) do(req *server.Request) (*server.Response, error) {
	cli, err := sc.client()
	if err != nil {
		return nil, err
	}
	resp, err := cli.Do(req)
	if err != nil {
		if errors.Is(err, client.ErrConnLost) {
			sc.fail(cli, err)
			return nil, ErrShardDown{Shard: sc.id, Addr: sc.addr}
		}
		return nil, err
	}
	return resp, nil
}

// enqueueAppend queues one sub-batch for the coalescing sender and
// returns the completion channel.
func (sc *shardConn) enqueueAppend(stream string, rows [][]server.WireValue, traceID string) chan error {
	done := make(chan error, 1)
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		done <- fmt.Errorf("shard: router is shutting down")
		return done
	}
	sc.queue = append(sc.queue, pendingAppend{stream: stream, rows: rows, trace: traceID, done: done})
	sc.mu.Unlock()
	select {
	case sc.wake <- struct{}{}:
	default:
	}
	return done
}

// sender drains the append queue: it takes the longest prefix of queued
// sub-batches that target the same stream (preserving producer order)
// and sends them as ONE wire append — the router-level analogue of WAL
// group commit. While a round-trip is in flight more sub-batches queue
// behind it, so concurrent producers amortize both the wire hop and the
// shard's fsync.
func (sc *shardConn) sender() {
	for range sc.wake {
		for {
			sc.mu.Lock()
			if sc.closed {
				queue := sc.queue
				sc.queue = nil
				sc.mu.Unlock()
				for _, p := range queue {
					p.done <- fmt.Errorf("shard: router is shutting down")
				}
				return
			}
			if len(sc.queue) == 0 {
				sc.mu.Unlock()
				break
			}
			stream := sc.queue[0].stream
			take, rows := 0, 0
			for take < len(sc.queue) && sc.queue[take].stream == stream {
				if take > 0 && rows+len(sc.queue[take].rows) > maxCoalescedRows {
					break
				}
				rows += len(sc.queue[take].rows)
				take++
			}
			group := sc.queue[:take:take]
			sc.queue = sc.queue[take:]
			cli := sc.cli
			sc.mu.Unlock()

			sc.sendGroup(cli, stream, group, rows)
		}
	}
}

// sendGroup ships one coalesced append and fans the result back to every
// producer in the group.
func (sc *shardConn) sendGroup(cli *client.Client, stream string, group []pendingAppend, rowCount int) {
	if cli == nil {
		err := ErrShardDown{Shard: sc.id, Addr: sc.addr}
		for _, p := range group {
			p.done <- err
		}
		return
	}
	var batch [][]server.WireValue
	if len(group) == 1 {
		batch = group[0].rows
	} else {
		batch = make([][]server.WireValue, 0, rowCount)
		for _, p := range group {
			batch = append(batch, p.rows...)
		}
	}
	// One trace ID is enough: the coalesced batch is one shard-side unit.
	traceID := ""
	for _, p := range group {
		if p.trace != "" {
			traceID = p.trace
			break
		}
	}
	start := time.Now()
	err := cli.AppendWire(stream, batch, traceID)
	sc.sendHist.ObserveSince(start)
	sc.coalesceH.Observe(float64(len(group)))
	if err == nil {
		sc.rowsRouted.Add(int64(rowCount))
	} else if errors.Is(err, client.ErrConnLost) {
		sc.fail(cli, err)
		err = ErrShardDown{Shard: sc.id, Addr: sc.addr}
	} else {
		sc.errsCtr.Inc()
	}
	for _, p := range group {
		p.done <- err
	}
}

// close shuts the connection down for good.
func (sc *shardConn) close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	cli := sc.cli
	sc.cli = nil
	sc.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
	select {
	case sc.wake <- struct{}{}:
	default:
	}
	if sc.unregisterQ != nil {
		sc.unregisterQ()
	}
}
