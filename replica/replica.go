// Package replica runs a streamrel engine as a read replica of a primary
// server: it connects with the client package's "replicate" op and hands
// each of the primary's replication frames to the engine (Engine.ApplyEvent),
// which maps it to state — DDL, inserts/deletes at the primary's RowIDs,
// stream appends (alone, or with the raw archive of the same rows) and
// heartbeats — runs its own continuous queries over it, so local subscribers
// get window fires, and keeps the point its state is the state as of
// (Engine.ReplicaMark). The replica keeps what is its own: the primary's run,
// the LSNs it has seen and applied, the lag metrics and the replica-apply
// span. It reconnects with exponential backoff plus jitter when the primary
// goes away, resumes from the engine's mark, and supports explicit promotion
// to primary.
package replica

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/repl"
	"streamrel/internal/trace"
	"streamrel/internal/wal"
)

// Options configures a replica.
type Options struct {
	// Addr is the primary server's address.
	Addr string
	// Engine is the local engine events apply into. Open it with
	// Config.Replicate so promotion yields a working primary (and so
	// further replicas can chain off this node). The resume point is part of
	// its state: an engine with a data directory recovers it with its tables
	// and resumes incrementally, an in-memory one starts from a snapshot.
	Engine *streamrel.Engine
	// Client sets dial and I/O timeouts for connections to the primary.
	Client client.Options
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults
	// 100ms / 5s); each retry doubles the delay and adds up to 50%
	// jitter.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Log receives structured connection lifecycle messages; nil
	// silences them.
	Log *slog.Logger
}

// idleTimeout is the per-frame read deadline. The primary pings about
// once a second, so a silent connection is dead, not idle.
const idleTimeout = 15 * time.Second

// Replica applies a primary's replication stream into a local engine.
type Replica struct {
	opts Options
	eng  *streamrel.Engine

	mu      sync.Mutex
	conn    net.Conn // current stream connection, for Stop to sever
	primary string   // the primary's run ID on this connection; the apply loop's alone
	started atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	done    chan struct{}

	lastApplied atomic.Uint64
	lastPrimary atomic.Uint64
	// lastWallLag is the most recent apply lag in seconds, scaled 1e6.
	lastWallLag atomic.Int64

	framesApplied *metrics.Counter
	reconnects    *metrics.Counter
	snapsRecv     *metrics.Counter
	applyLag      *metrics.Histogram
}

// New creates a replica bound to its engine. The engine enters replica mode
// (writes rejected, channel taps quiet) immediately; Start begins streaming.
func New(opts Options) (*Replica, error) {
	if opts.Engine == nil {
		return nil, errors.New("replica: Options.Engine is required")
	}
	if opts.Addr == "" {
		return nil, errors.New("replica: Options.Addr is required")
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	r := &Replica{opts: opts, eng: opts.Engine, stopCh: make(chan struct{}), done: make(chan struct{})}
	reg := opts.Engine.Metrics()
	r.framesApplied = reg.Counter("streamrel_repl_frames_applied_total",
		"replication frames applied by this replica")
	r.reconnects = reg.Counter("streamrel_repl_reconnects_total",
		"reconnect attempts to the primary")
	r.snapsRecv = reg.Counter("streamrel_repl_snapshots_received_total",
		"full snapshots received from the primary")
	r.applyLag = reg.Histogram("streamrel_repl_apply_lag_seconds",
		"primary publish to replica apply latency per frame", nil)
	reg.GaugeFunc("streamrel_repl_last_applied_lsn",
		"last primary LSN this replica applied",
		func() float64 { return float64(r.lastApplied.Load()) })
	reg.GaugeFunc("streamrel_repl_lag_lsn",
		"replication lag: primary LSN minus last applied LSN",
		func() float64 { return float64(r.LagLSN()) })
	reg.GaugeFunc("streamrel_repl_lag_seconds",
		"replication lag in seconds (latest frame's publish-to-apply delay)",
		func() float64 { return float64(r.lastWallLag.Load()) / 1e6 })
	_, lsn := opts.Engine.ReplicaMark()
	r.lastApplied.Store(lsn)
	opts.Engine.BeginReplica()
	return r, nil
}

func (r *Replica) log(msg string, args ...any) {
	if r.opts.Log != nil {
		r.opts.Log.Info(msg, args...)
	}
}

// Start launches the connect/apply loop.
func (r *Replica) Start() {
	if r.started.Swap(true) {
		return
	}
	go r.run()
}

// Stop severs the stream and stops reconnecting. The engine stays in replica
// mode (use Promote to lift it).
func (r *Replica) Stop() {
	if !r.stopped.Swap(true) {
		close(r.stopCh)
		r.mu.Lock()
		if r.conn != nil {
			r.conn.Close()
		}
		r.mu.Unlock()
	}
	if r.started.Load() {
		<-r.done
	}
}

// Promote stops replication and promotes the local engine to primary:
// writes are accepted and channel taps resume. The engine keeps its own
// replication hub, so new replicas can chain off this node.
func (r *Replica) Promote() error {
	r.Stop()
	r.eng.Promote()
	return nil
}

// LastLSN returns the last primary LSN this replica applied.
func (r *Replica) LastLSN() uint64 { return r.lastApplied.Load() }

// PrimaryLSN returns the primary's most recently observed LSN.
func (r *Replica) PrimaryLSN() uint64 { return r.lastPrimary.Load() }

// LagLSN returns the current LSN delta to the primary.
func (r *Replica) LagLSN() uint64 {
	p, a := r.lastPrimary.Load(), r.lastApplied.Load()
	if p <= a {
		return 0
	}
	return p - a
}

// LagSeconds returns the wall-clock apply lag of the most recent
// replicated event — how far behind the primary this replica ran when it
// last applied something. Readiness probes compare it to a threshold.
func (r *Replica) LagSeconds() float64 { return float64(r.lastWallLag.Load()) / 1e6 }

// WaitFor blocks until the replica has applied at least lsn. Use this
// with the primary hub's LSN() when ground truth is at hand; unlike
// WaitCaughtUp it cannot be satisfied by a stale view of the primary.
func (r *Replica) WaitFor(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.lastApplied.Load() >= lsn {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("replica: lsn %d not applied after %v (at %d)",
		lsn, timeout, r.lastApplied.Load())
}

// WaitCaughtUp blocks until the replica has applied every LSN the
// primary has published at some point after the call (lag 0 with an
// established connection), or the timeout elapses.
func (r *Replica) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.lastPrimary.Load() > 0 && r.LagLSN() == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("replica: not caught up after %v (applied %d, primary %d)",
		timeout, r.lastApplied.Load(), r.lastPrimary.Load())
}

// run is the reconnect loop: dial, stream, apply until failure, back off,
// repeat. Backoff resets after any successfully applied frame.
func (r *Replica) run() {
	defer close(r.done)
	backoff := r.opts.BackoffMin
	for !r.stopped.Load() {
		applied, err := r.streamOnce()
		if r.stopped.Load() {
			return
		}
		if err != nil {
			if r.opts.Log != nil {
				r.opts.Log.Warn("replication stream failed", "primary", r.opts.Addr, "error", err.Error())
			}
		}
		if applied {
			backoff = r.opts.BackoffMin
		}
		// Exponential backoff with up to 50% jitter so a herd of replicas
		// does not reconnect in lockstep.
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if backoff *= 2; backoff > r.opts.BackoffMax {
			backoff = r.opts.BackoffMax
		}
		timer := time.NewTimer(sleep)
		select {
		case <-timer.C:
		case <-r.stopCh:
			timer.Stop()
			return
		}
		r.reconnects.Inc()
	}
}

// streamOnce runs one connection lifetime: handshake, then apply frames
// until the stream fails or Stop severs it. applied reports whether at
// least one frame was applied (used to reset backoff).
func (r *Replica) streamOnce() (applied bool, err error) {
	c, err := client.DialOptions(r.opts.Addr, r.opts.Client)
	if err != nil {
		return false, err
	}
	defer c.Close()
	run, lsn := r.eng.ReplicaMark()
	rs, err := c.Replicate(lsn, run)
	if err != nil {
		return false, err
	}
	defer rs.Close()
	r.mu.Lock()
	r.conn = rs.Conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
	}()

	for {
		rs.Conn.SetReadDeadline(time.Now().Add(idleTimeout))
		ev, err := rs.R.ReadEvent()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return applied, nil
			}
			return applied, err
		}
		if r.stopped.Load() {
			return applied, nil
		}
		kept, err := r.apply(ev)
		if err != nil {
			return applied, fmt.Errorf("apply %v frame (lsn %d): %w", ev.Kind, ev.LSN, err)
		}
		if !kept {
			rs.R.Recycle()
		}
		applied = true
	}
}

// apply hands one frame to the engine, which maps it to state and keeps the
// resume point (Engine.ApplyEvent), and keeps what is the replica's: the
// primary's run, the LSNs, the lag metrics and the replica-apply span. kept
// is ApplyEvent's.
func (r *Replica) apply(ev *repl.Event) (kept bool, err error) {
	r.framesApplied.Inc()
	if ev.LSN > r.lastPrimary.Load() {
		r.lastPrimary.Store(ev.LSN)
	}
	switch ev.Kind {
	case repl.KindPing:
		r.observeLag(ev, false)
		return false, nil
	case repl.KindResume:
		r.primary = ev.Run
		r.log("resuming replication", "lsn", r.lastApplied.Load(), "run", ev.Run)
		return false, nil
	case repl.KindSnapBegin:
		r.lastApplied.Store(0) // of this run nothing is applied yet, whatever was of another
		r.snapsRecv.Inc()
		r.primary = ev.Run
		r.log("receiving snapshot", "run", ev.Run)
	case repl.KindSnapEnd:
		r.log("snapshot complete", "lsn", ev.LSN)
	}
	start := r.spanStart(ev)
	if kept, err = r.eng.ApplyEvent(r.primary, ev); err != nil || ev.LSN == 0 {
		return kept, err // a snapshot's begin or state frame: the resume point moves at its end
	}
	r.recordApply(ev, start)
	if ev.LSN > r.lastApplied.Load() {
		r.lastApplied.Store(ev.LSN)
	}
	r.observeLag(ev, ev.Kind != repl.KindSnapEnd)
	return kept, nil
}

// spanStart returns the wall-clock start for a traced frame's
// replica-apply span, or the zero time for untraced frames.
func (r *Replica) spanStart(ev *repl.Event) time.Time {
	if ev.Trace == 0 || r.eng.Tracer() == nil {
		return time.Time{}
	}
	return time.Now()
}

// recordApply closes a traced frame's span chain on this replica: the
// span shares the primary's trace ID, so reading the replica's trace ring
// shows where a traced primary batch landed remotely.
func (r *Replica) recordApply(ev *repl.Event, start time.Time) {
	if start.IsZero() {
		return
	}
	rows, stream := len(ev.Rows), ev.Stream
	if ev.Kind == repl.KindWAL {
		if rows = wal.RowCount(ev.Recs); rows > 0 {
			stream = ev.Recs[0].Table
		}
	}
	r.eng.Tracer().Record(trace.Span{Trace: ev.Trace, Stage: trace.StageReplicaApply,
		Stream: stream, Start: start.UnixMicro(),
		Dur: time.Since(start).Nanoseconds(), Rows: rows})
}

// observeLag converts the frame's publish wall clock into the seconds-lag
// gauge (and, for applied events, the apply-lag histogram). Clock skew
// between nodes can make the delta negative; clamp to zero.
func (r *Replica) observeLag(ev *repl.Event, histogram bool) {
	if ev.Wall == 0 {
		return
	}
	lag := time.Now().UnixMicro() - ev.Wall
	if lag < 0 {
		lag = 0
	}
	r.lastWallLag.Store(lag)
	if histogram {
		r.applyLag.Observe(float64(lag) / 1e6)
	}
}
