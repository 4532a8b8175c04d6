package repl

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// SnapshotFunc emits the engine's durable state at one cut, as events with
// LSN 0: KindWAL for the DDL log and every table's rows at their RowIDs, then
// a KindTableNext for each table. While it runs no transaction commits, no
// stream event is published and no DDL runs, so this hub's LSN stands still;
// atCut, when not nil, runs inside that same section, before the first event.
// ServeConn only spools what is emitted and writes to the network after it
// returns: the cut is held for an in-memory scan, never for a transfer.
type SnapshotFunc func(atCut func(), emit func(Event) error) error

// Config configures a Primary.
type Config struct {
	// Snapshot is the engine's snapshot producer; nil serves no snapshots.
	Snapshot SnapshotFunc
	// Metrics registers replication series; nil disables them.
	Metrics *metrics.Registry
	// RingSize is the most recent events the replication ring retains for
	// incremental catch-up; 0 means DefaultRingSize. What they carry is
	// bounded separately, at maxRingBytes.
	RingSize int
	// SubBuffer is each subscriber's channel depth; 0 means
	// DefaultSubBuffer. A subscriber that falls this far behind is
	// dropped back to ring catch-up (and to a disconnect if the ring has
	// moved on), so a slow replica never stalls ingest.
	SubBuffer int
	// PingEvery is the live-tail keepalive interval; 0 means one second.
	PingEvery time.Duration
}

// Default sizing for the replication ring and subscriber queues.
const (
	DefaultRingSize  = 8192
	DefaultSubBuffer = 1024
)

// maxRingBytes bounds what the ring's events carry, by the estimate that
// splits them (chunkEnd): an event count alone bounds nothing when one event
// may be MaxEventBytes. Two events of that size always fit, so a replica one
// oversized batch behind still catches up from the ring.
const maxRingBytes = 2 * MaxEventBytes

type subscriber struct {
	ch chan Event
}

// Primary assigns LSNs, retains the event ring, and fans events out to
// connected replicas. Publish methods block only on the (short) critical
// section; subscriber channels are never sent to while full — an
// overflowing subscriber is dropped instead, which is the backpressure
// contract that keeps ingest independent of replica speed.
type Primary struct {
	snapshot SnapshotFunc

	// commitMu serializes transaction commit+publish pairs so a
	// transaction that depends on another's writes always receives a
	// later LSN — without making stream ingest (PublishAppend and
	// PublishAdvance, which take only mu) wait behind commit work such as
	// MVCC visibility publication. mu itself is only ever held for the
	// short ring-append critical section.
	commitMu sync.Mutex

	mu  sync.Mutex
	lsn uint64
	run string
	// ring is a circular buffer of len(ring) slots holding the ringLen most
	// recent events, the oldest at head. ringSizes[i] is the chunkEnd
	// estimate of what ring[i] carries and retained their sum: the ring evicts
	// from the head past len(ring) events or maxRingBytes, whichever it meets
	// first.
	ring      []Event
	ringSizes []int
	head      int
	ringLen   int
	retained  int
	subs      map[*subscriber]struct{}
	// copies carves the blocks PublishAppend copies a batch into; the ring
	// owns each block it hands out.
	copies types.RowStrings

	subBuf    int
	pingEvery time.Duration

	connected  *metrics.Gauge
	frames     *metrics.Counter
	events     *metrics.Counter
	snaps      *metrics.Counter
	overflows  *metrics.Counter
	ringEvents *metrics.Gauge
	ringBytes  *metrics.Gauge
}

// NewPrimary creates a replication hub with a fresh random run ID.
func NewPrimary(cfg Config) *Primary {
	ringSize := cfg.RingSize
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	subBuf := cfg.SubBuffer
	if subBuf <= 0 {
		subBuf = DefaultSubBuffer
	}
	pingEvery := cfg.PingEvery
	if pingEvery <= 0 {
		pingEvery = time.Second
	}
	p := &Primary{
		snapshot:  cfg.Snapshot,
		run:       newRunID(),
		ring:      make([]Event, ringSize),
		ringSizes: make([]int, ringSize),
		subs:      make(map[*subscriber]struct{}),
		subBuf:    subBuf,
		pingEvery: pingEvery,
		connected: cfg.Metrics.Gauge("streamrel_repl_connected_replicas",
			"replicas currently streaming from this primary"),
		frames: cfg.Metrics.Counter("streamrel_repl_frames_sent_total",
			"replication frames written to replicas"),
		events: cfg.Metrics.Counter("streamrel_repl_events_total",
			"replication events published (committed batches + stream events)"),
		snaps: cfg.Metrics.Counter("streamrel_repl_snapshots_served_total",
			"full logical snapshots streamed to replicas"),
		overflows: cfg.Metrics.Counter("streamrel_repl_subscriber_overflows_total",
			"replicas dropped back to catch-up because their queue overflowed"),
		ringEvents: cfg.Metrics.Gauge("streamrel_repl_ring_events",
			"events retained in the replication ring for incremental catch-up"),
		ringBytes: cfg.Metrics.Gauge("streamrel_repl_ring_bytes",
			"estimated encoded bytes of the rows and WAL records the replication ring retains"),
	}
	cfg.Metrics.GaugeFunc("streamrel_repl_lsn",
		"latest log sequence number assigned by this primary",
		func() float64 { return float64(p.LSN()) })
	return p
}

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for uniqueness; fall back
		// to a constant that still forces resync against other runs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RunID returns this primary's replication epoch identifier.
func (p *Primary) RunID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.run
}

// NewRun begins a new epoch and cuts every subscriber loose: the engine has
// dropped the state they were following (ReplicaReset), so each reconnects
// under the old run ID and is sent a snapshot.
func (p *Primary) NewRun() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.run = newRunID()
	for sub := range p.subs {
		delete(p.subs, sub)
		close(sub.ch)
	}
}

// Snapshot emits the engine's durable state at one cut (SnapshotFunc) in the
// form two engines compare by: a record for every (table, RowID, row).
func (p *Primary) Snapshot(emit func(Event) error) error {
	return p.snapshot(nil, func(ev Event) error {
		ev.Recs = wal.Expand(ev.Recs)
		return emit(ev)
	})
}

// LSN returns the most recently assigned sequence number.
func (p *Primary) LSN() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lsn
}

// MaxEventBytes caps the approximate payload size of one published event.
// Oversized WAL batches and stream appends are split across several
// events at publish time, so no frame can approach maxFramePayload (which
// a replica would reject, wedging replication in a reconnect loop —
// wal.Replay's batch bound is larger than the frame bound). Snapshot
// producers apply the same budget to the batches they emit.
const MaxEventBytes = 32 << 20

// rowSize estimates a row's encoded size and recordSize a WAL record's, rows
// and all; both over-count varints slightly, which only makes splits more
// conservative. One estimate serves the MaxEventBytes splits and the ring's
// byte bound, so a row counts the same whichever event carries it.
func rowSize(row types.Row) int {
	n := 10
	for _, d := range row {
		n += 11
		if d.Type() == types.TypeString {
			n += len(d.Str())
		}
	}
	return n
}

func recordSize(r *wal.Record) int {
	n := 16 + len(r.Table) + len(r.SQL) + rowSize(r.Row)
	for _, row := range r.Rows {
		n += rowSize(row)
	}
	return n
}

// PublishTxn commits a transaction and publishes its WAL batch, atomic
// with respect to LSN order: commitMu is held across commit and
// publication, so a transaction that saw this one's writes commits — and
// sequences — strictly after it. A batch larger than MaxEventBytes is
// split across consecutive LSNs; a replica applies each chunk as its own
// local transaction, and its resume point advances per event. traceID
// (0 = untraced) rides the published events so replicas close the batch's
// span chain. A nil commit publishes a batch committed already (DDL).
func (p *Primary) PublishTxn(recs []wal.Record, commit func() error, traceID uint64) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	p.publishWAL(recs, traceID)
	return nil
}

// chunkEnd returns the end index and estimated size of the event starting
// at start: items are taken greedily while the byte budget holds, and every
// event carries at least one item (a single item beyond the budget travels
// alone).
func chunkEnd(start, n, budget int, size func(int) int) (end, total int) {
	end = start
	for end < n && (end == start || total+size(end) <= budget) {
		total += size(end)
		end++
	}
	return end, total
}

// Chunks hands emit rows and the RowID runs they are stored at (none: rows of
// a stream) in pieces of at most MaxEventBytes, by the estimate: rows and runs
// split at the same place, and a batch within the budget is handed over as it
// came.
func Chunks(runs []wal.RowIDRun, rows []types.Row, emit func(runs []wal.RowIDRun, rows []types.Row, size int)) {
	for start := 0; start < len(rows); {
		end, size := chunkEnd(start, len(rows), MaxEventBytes, func(i int) int { return rowSize(rows[i]) })
		var head []wal.RowIDRun
		head, runs = cutRuns(runs, uint64(end-start))
		emit(head, rows[start:end], size)
		start = end
	}
}

// cutRuns splits runs behind their first n RowIDs, sharing what it can.
func cutRuns(runs []wal.RowIDRun, n uint64) (head, tail []wal.RowIDRun) {
	i := 0
	for ; i < len(runs) && runs[i].N <= n; i++ {
		n -= runs[i].N
	}
	if n == 0 || i == len(runs) {
		return runs[:i], runs[i:]
	}
	head = append(slices.Clone(runs[:i]), wal.RowIDRun{First: runs[i].First, N: n})
	tail = append([]wal.RowIDRun{{First: runs[i].First + n, N: runs[i].N - n}}, runs[i+1:]...)
	return head, tail
}

// publishWAL packs recs into events greedily; an insert that is beyond the
// budget by itself goes out in pieces (Chunks), each an event of its own.
func (p *Primary) publishWAL(recs []wal.Record, traceID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for start := 0; start < len(recs); {
		end, size := chunkEnd(start, len(recs), MaxEventBytes, func(i int) int { return recordSize(&recs[i]) })
		if r := &recs[start]; size > MaxEventBytes && len(r.Rows) > 1 {
			Chunks(r.Runs, r.Rows, func(runs []wal.RowIDRun, rows []types.Row, size int) {
				p.publishLocked(Event{Kind: KindWAL, Trace: traceID,
					Recs: []wal.Record{{Kind: wal.RecRows, Table: r.Table, Runs: runs, Rows: rows}}}, size)
			})
		} else {
			p.publishLocked(Event{Kind: KindWAL, Recs: recs[start:end], Trace: traceID}, size)
		}
		start = end
	}
}

// PublishAppend publishes rows accepted into a base stream. Called under
// the source's delivery lock, which fixes the per-stream event order.
// Oversized appends split like WAL batches do. traceID (0 = untraced)
// carries the batch's trace context to replicas. The ring keeps a copy of
// the rows, strings included, in blocks of its own: the caller's may be a
// decode its reader reuses.
func (p *Primary) PublishAppend(stream string, rows []types.Row, traceID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, row := range rows {
		p.copies.PushRow(row)
	}
	Chunks(nil, p.copies.Rows(), func(_ []wal.RowIDRun, rows []types.Row, size int) {
		p.publishLocked(Event{Kind: KindAppend, Stream: stream, Rows: rows, Trace: traceID}, size)
	})
}

// PublishArchive commits the transaction that stored a base stream's
// accepted batch, unchanged, in table at the RowIDs in runs, and publishes
// the batch once, as KindArchive events that stand for both the KindAppend
// and the KindWAL of those rows. The caller holds the stream's delivery lock,
// which fixes the per-stream event order as it does for PublishAppend, and
// commitMu is held across commit and publication as in PublishTxn, so the
// event also sits in the table's commit order. An oversized batch splits rows
// and RowID runs together. If commit fails nothing is published: the caller
// still owes the stream its KindAppend.
func (p *Primary) PublishArchive(stream, table string, runs []wal.RowIDRun, rows []types.Row, commit func() error, traceID uint64) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	Chunks(runs, rows, func(runs []wal.RowIDRun, rows []types.Row, size int) {
		p.publishLocked(Event{Kind: KindArchive, Stream: stream, Table: table, Rows: rows, Runs: runs, Trace: traceID}, size)
	})
	return nil
}

// PublishAdvance publishes an effective heartbeat.
func (p *Primary) PublishAdvance(stream string, ts int64) {
	p.mu.Lock()
	p.publishLocked(Event{Kind: KindAdvance, Stream: stream, TS: ts}, 0)
	p.mu.Unlock()
}

// publishLocked sequences and retains ev, which carries size bytes of rows,
// evicting from the head whatever no longer fits beside it — never ev itself.
func (p *Primary) publishLocked(ev Event, size int) {
	p.lsn++
	ev.LSN = p.lsn
	ev.Wall = time.Now().UnixMicro()
	for p.ringLen > 0 && (p.ringLen == len(p.ring) || p.retained+size > maxRingBytes) {
		p.retained -= p.ringSizes[p.head]
		p.ring[p.head] = Event{} // let go of its rows
		p.head = (p.head + 1) % len(p.ring)
		p.ringLen--
	}
	tail := (p.head + p.ringLen) % len(p.ring)
	p.ring[tail], p.ringSizes[tail] = ev, size
	p.ringLen++
	p.retained += size
	p.ringEvents.Set(float64(p.ringLen))
	p.ringBytes.Set(float64(p.retained))
	p.events.Inc()
	for sub := range p.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow replica: cut it loose rather than block ingest. Its
			// serving goroutine sees the closed channel and retries from
			// the ring (or disconnects, forcing a reconnect + resync).
			delete(p.subs, sub)
			close(sub.ch)
			p.overflows.Inc()
		}
	}
}

// oldestLocked returns the LSN of the oldest ring event — lsn+1 when the
// ring is empty (every "future" LSN is trivially covered).
func (p *Primary) oldestLocked() uint64 {
	return p.lsn - uint64(p.ringLen) + 1
}

// attach registers a subscriber that catches up from the ring — the
// replica's run ID matches and the ring still covers fromLSN+1 — and returns
// the backlog. Registration and the copy share one critical section, so
// backlog plus subscription cover every event with no gap. Otherwise the
// replica needs a snapshot (attachAtCut) and nothing is registered.
func (p *Primary) attach(fromLSN uint64, runID string) (sub *subscriber, backlog []Event, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if runID != p.run || fromLSN > p.lsn || fromLSN+1 < p.oldestLocked() {
		return nil, nil, false
	}
	for i := 0; i < p.ringLen; i++ {
		if ev := p.ring[(p.head+i)%len(p.ring)]; ev.LSN > fromLSN {
			backlog = append(backlog, ev)
		}
	}
	sub = &subscriber{ch: make(chan Event, p.subBuf)}
	p.subs[sub] = struct{}{}
	return sub, backlog, true
}

// attachAtCut spools the engine's state at one cut and, inside that cut,
// registers the subscriber and reads the boundary: nothing is published while
// the cut is held, so every event is in the spool or after the boundary and
// never both. The spool shares the heap's immutable rows — O(rows) pointers,
// not a copy — and is streamed after the cut is released, so a slow or wedged
// replica never freezes the engine for the transfer; events published
// meanwhile queue in sub.ch.
func (p *Primary) attachAtCut() (sub *subscriber, spool []Event, run string, boundary uint64, err error) {
	if p.snapshot == nil {
		return nil, nil, "", 0, fmt.Errorf("repl: no snapshot producer configured")
	}
	sub = &subscriber{ch: make(chan Event, p.subBuf)}
	err = p.snapshot(func() {
		p.mu.Lock()
		run, boundary = p.run, p.lsn
		p.subs[sub] = struct{}{}
		p.mu.Unlock()
	}, func(ev Event) error { spool = append(spool, ev); return nil })
	if err != nil {
		p.detach(sub)
	}
	return sub, spool, run, boundary, err
}

func (p *Primary) detach(sub *subscriber) {
	p.mu.Lock()
	if _, ok := p.subs[sub]; ok {
		delete(p.subs, sub)
		close(sub.ch)
	}
	p.mu.Unlock()
}

// writeDeadline bounds each flush to a replica so a hung connection
// cannot pin its serving goroutine.
const writeDeadline = 30 * time.Second

// ServeConn streams replication frames to one replica until the
// connection fails or the replica falls irrecoverably behind. fromLSN is
// the last LSN the replica has applied under runID ("", 0 for a fresh
// replica). The caller owns conn and closes it afterwards; ServeConn
// blocks for the lifetime of the stream.
func (p *Primary) ServeConn(conn net.Conn, fromLSN uint64, runID string) error {
	if p == nil {
		return fmt.Errorf("repl: replication is not enabled on this server")
	}
	p.connected.Add(1)
	defer p.connected.Add(-1)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	send := func(ev *Event) error {
		buf = AppendFrame(buf[:0], ev)
		// A deadline on every write, not just on flush: bufio flushes to
		// conn implicitly whenever its buffer fills, so a replica that
		// stops reading must never pin this goroutine indefinitely.
		conn.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		p.frames.Inc()
		return nil
	}
	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(writeDeadline))
		return bw.Flush()
	}

	for attempt := 0; ; attempt++ {
		sub, backlog, ok := p.attach(fromLSN, runID)
		first, lastSent := Event{Kind: KindResume, Run: runID, LSN: fromLSN}, fromLSN
		var last *Event // a snapshot's end
		if !ok {
			if attempt > 0 {
				// The replica overflowed its queue and the ring has already
				// moved past what it saw — a second snapshot would likely
				// just overflow again — or the hub began a new run.
				// Disconnect; the replica reconnects and resyncs at its own
				// pace.
				return fmt.Errorf("repl: replica too slow for ring of %d events, or a new run began", len(p.ring))
			}
			var boundary uint64
			var err error
			if sub, backlog, runID, boundary, err = p.attachAtCut(); err != nil {
				return err
			}
			first, last = Event{Kind: KindSnapBegin, Run: runID}, &Event{Kind: KindSnapEnd, LSN: boundary}
		}
		err := send(&first)
		for i := 0; err == nil && i < len(backlog); i++ {
			err = send(&backlog[i])
			lastSent = max(lastSent, backlog[i].LSN) // a snapshot's events carry none
		}
		if err == nil && last != nil {
			err = send(last)
			lastSent = last.LSN
			p.snaps.Inc()
		}
		if err == nil {
			err = flush()
		}
		if err != nil {
			p.detach(sub)
			return err
		}

		overflowed, err := p.tail(sub, send, flush, &lastSent)
		p.detach(sub)
		if err != nil {
			return err
		}
		if !overflowed {
			return nil
		}
		// Queue overflow: retry incrementally from the last frame this
		// replica actually received, of the run it was sent under.
		fromLSN = lastSent
	}
}

// tail streams live events from sub until the channel closes (overflow)
// or a write fails, interleaving pings so an idle replica still observes
// the primary's LSN and clock.
func (p *Primary) tail(sub *subscriber, send func(*Event) error, flush func() error, lastSent *uint64) (overflowed bool, err error) {
	ticker := time.NewTicker(p.pingEvery)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return true, nil
			}
			if err := send(&ev); err != nil {
				return false, err
			}
			*lastSent = ev.LSN
			// Opportunistically drain whatever is queued before flushing,
			// so a burst becomes one syscall.
		drain:
			for {
				select {
				case ev, ok := <-sub.ch:
					if !ok {
						// Flush what we have, then report the overflow.
						if err := flush(); err != nil {
							return false, err
						}
						return true, nil
					}
					if err := send(&ev); err != nil {
						return false, err
					}
					*lastSent = ev.LSN
				default:
					break drain
				}
			}
			if err := flush(); err != nil {
				return false, err
			}
		case <-ticker.C:
			if err := send(&Event{Kind: KindPing, LSN: p.LSN(), Wall: time.Now().UnixMicro()}); err != nil {
				return false, err
			}
			if err := flush(); err != nil {
				return false, err
			}
		}
	}
}
