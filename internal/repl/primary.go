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
// LSN 0, each a KindWAL: the DDL log, every table's rows at their RowIDs, then
// each table's next RowID as a wal.RecNext record. While it runs no
// transaction commits, no stream event is published and no DDL runs, so this
// hub's LSN stands still; atCut, when not nil, runs inside that same section,
// before the first event.
// ServeConn only spools what is emitted and writes to the network after it
// returns: the cut is held for an in-memory scan, never for a transfer.
type SnapshotFunc func(atCut func(), emit func(Event) error) error

// Config configures a Primary.
type Config struct {
	// Snapshot is the engine's snapshot producer; nil serves no snapshots.
	Snapshot SnapshotFunc
	// Metrics registers replication series; nil disables them.
	Metrics *metrics.Registry
	// PingEvery is the live-tail keepalive interval; 0 means one second.
	PingEvery time.Duration
}

// DefaultRingSize is the most recent events the replication ring retains
// for catch-up and the live tail alike; what they carry is bounded
// separately, at maxRingBytes.
const DefaultRingSize = 8192

// tailBatch is the most events a follower copies out of the ring in one pass.
const tailBatch = 256

// maxRingBytes bounds what the ring's events carry, by the estimate that
// splits them (chunkEnd): an event count alone bounds nothing when one event
// may be MaxEventBytes. Two events of that size always fit, so a replica one
// oversized batch behind still catches up from the ring.
const maxRingBytes = 2 * MaxEventBytes

// Primary assigns LSNs and retains the event ring, which is the one queue
// its followers read: each is an LSN cursor into it. Publish methods block
// only on the (short) critical section and never on a follower — they wake
// it, and a follower whose next event the ring has evicted is dropped, which
// is the backpressure contract that keeps ingest independent of replica speed.
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
	// wakes holds each follower's 1-slot wake channel; a publish or a new
	// run sends to each without blocking.
	wakes map[chan struct{}]struct{}
	// copies carves the blocks PublishAppend copies a batch into; the ring
	// owns each block it hands out.
	copies types.RowStrings
	// runs, recs, spans and rows are the blocks publishLocked copies an
	// event's RowID runs, WAL records and the spans of its stored rows (or,
	// without spans, its row headers) into (carve): a publisher reuses its own
	// once it returns. carved is the LSN of the newest event carved into them:
	// once the ring evicts it they hold nothing it does, and are retired, so a
	// chunk of an evicted event's rows is not kept for the events carved after
	// it.
	runs   []wal.RowIDRun
	recs   []wal.Record
	spans  []types.Span
	rows   []types.Row
	carved uint64

	pingEvery time.Duration
	// done is closed by Close: every ServeConn returns.
	done chan struct{}

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
	pingEvery := cfg.PingEvery
	if pingEvery <= 0 {
		pingEvery = time.Second
	}
	p := &Primary{
		snapshot:  cfg.Snapshot,
		run:       newRunID(),
		ring:      make([]Event, DefaultRingSize),
		ringSizes: make([]int, DefaultRingSize),
		wakes:     make(map[chan struct{}]struct{}),
		pingEvery: pingEvery,
		done:      make(chan struct{}),
		connected: cfg.Metrics.Gauge("streamrel_repl_connected_replicas",
			"replicas currently streaming from this primary"),
		frames: cfg.Metrics.Counter("streamrel_repl_frames_sent_total",
			"replication frames written to replicas"),
		events: cfg.Metrics.Counter("streamrel_repl_events_total",
			"replication events published (committed batches + stream events)"),
		snaps: cfg.Metrics.Counter("streamrel_repl_snapshots_served_total",
			"full logical snapshots streamed to replicas"),
		overflows: cfg.Metrics.Counter("streamrel_repl_subscriber_overflows_total",
			"replicas disconnected because the ring evicted the next event they needed"),
		ringEvents: cfg.Metrics.Gauge("streamrel_repl_ring_events",
			"events retained in the replication ring, which its followers read"),
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

// Close ends every stream ServeConn serves, now and later: the engine that
// publishes to the hub has closed. Call it once.
func (p *Primary) Close() { close(p.done) }

// RunID returns this primary's replication epoch identifier.
func (p *Primary) RunID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.run
}

// NewRun begins a new epoch and cuts every follower loose: the engine has
// dropped the state they were following (a snapshot's begin), so each reconnects
// under the old run ID and is sent a snapshot.
func (p *Primary) NewRun() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.run = newRunID()
	p.wakeLocked()
}

// wakeLocked tells every follower to look at the ring again.
func (p *Primary) wakeLocked() {
	for wake := range p.wakes {
		select {
		case wake <- struct{}{}:
		default: // a wake is pending already
		}
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
// span chain. A nil commit publishes a batch committed already (DDL). The ring
// keeps spans, the RecRows rows in their heaps (storage.Heap.Spans), if any.
func (p *Primary) PublishTxn(recs []wal.Record, spans []types.Span, commit func() error, traceID uint64) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	p.publishWAL(recs, spans, traceID)
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
func (p *Primary) publishWAL(recs []wal.Record, spans []types.Span, traceID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for start := 0; start < len(recs); {
		end, size := chunkEnd(start, len(recs), MaxEventBytes, func(i int) int { return recordSize(&recs[i]) })
		if r := &recs[start]; size > MaxEventBytes && len(r.Rows) > 1 {
			Chunks(r.Runs, r.Rows, func(runs []wal.RowIDRun, rows []types.Row, size int) {
				spans = p.publishLocked(Event{Kind: KindWAL, Trace: traceID,
					Recs: []wal.Record{{Kind: wal.RecRows, Table: r.Table, Runs: runs, Rows: rows}}}, size, spans)
			})
		} else {
			spans = p.publishLocked(Event{Kind: KindWAL, Recs: recs[start:end], Trace: traceID}, size, spans)
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
		p.publishLocked(Event{Kind: KindAppend, Stream: stream, Rows: rows, Trace: traceID}, size, nil)
	})
}

// PublishArchive commits the transaction that stored a base stream's
// accepted batch, unchanged, in table at the RowIDs in runs, and publishes
// the batch once, as KindArchive events that stand for both the KindAppend
// and the KindWAL of those rows. The caller holds the stream's delivery lock,
// which fixes the per-stream event order as it does for PublishAppend, and
// commitMu is held across commit and publication as in PublishTxn, so the
// event also sits in the table's commit order, and spans are as there. An
// oversized batch splits rows, RowID runs and spans together. If commit fails
// nothing is published: the caller still owes the stream its KindAppend.
func (p *Primary) PublishArchive(stream, table string, runs []wal.RowIDRun, rows []types.Row, spans []types.Span, commit func() error, traceID uint64) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	Chunks(runs, rows, func(runs []wal.RowIDRun, piece []types.Row, size int) {
		spans = p.publishLocked(Event{Kind: KindArchive, Stream: stream, Table: table, Rows: piece, Runs: runs, Trace: traceID}, size, spans)
	})
	return nil
}

// PublishAdvance publishes an effective heartbeat.
func (p *Primary) PublishAdvance(stream string, ts int64) {
	p.mu.Lock()
	p.publishLocked(Event{Kind: KindAdvance, Stream: stream, TS: ts}, 0, nil)
	p.mu.Unlock()
}

// publishLocked sequences and retains ev, which carries size bytes of rows,
// evicting from the head whatever no longer fits beside it — never ev itself —
// and returns the spans behind ev's. The ring keeps copies of ev's runs,
// records and spans (held; a KindAppend's rows are its own copies already);
// the words stay the publisher's, which never writes them again (the heap's).
func (p *Primary) publishLocked(ev Event, size int, spans []types.Span) []types.Span {
	ev.Runs, ev.Recs = carve(&p.runs, ev.Runs, 256), carve(&p.recs, ev.Recs, 256)
	if ev.Kind == KindArchive {
		ev.Rows, ev.Spans, spans = p.held(ev.Rows, spans)
	}
	for i := range ev.Recs {
		ev.Recs[i].Runs = carve(&p.runs, ev.Recs[i].Runs, 256)
		ev.Recs[i].Rows, ev.Recs[i].Spans, spans = p.held(ev.Recs[i].Rows, spans)
	}
	p.lsn++
	ev.LSN = p.lsn
	ev.Wall = time.Now().UnixMicro()
	if ev.Runs != nil || ev.Recs != nil { // an archive's spans come with its runs
		p.carved = p.lsn
	}
	for p.ringLen > 0 && (p.ringLen == len(p.ring) || p.retained+size > maxRingBytes) {
		if p.ring[p.head].LSN == p.carved {
			p.runs, p.recs, p.spans, p.rows = nil, nil, nil, nil
		}
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
	p.wakeLocked()
	return spans
}

// held copies into a block of the ring's own what it keeps of rows: the spans
// at the head of spans that hold them, the last one cut where they end, or
// with no spans the rows' headers. It returns what it keeps and the spans
// behind.
func (p *Primary) held(rows []types.Row, spans []types.Span) ([]types.Row, []types.Span, []types.Span) {
	if spans == nil || len(rows) == 0 {
		return carve(&p.rows, rows, 256), nil, spans
	}
	k, n := 0, len(rows)
	for ; n > 0 && n >= spans[k].Len(); k++ {
		n -= spans[k].Len()
	}
	if n == 0 {
		return nil, carve(&p.spans, spans[:k], 256), spans[k:]
	}
	kept := carve(&p.spans, spans[:k+1], 256)
	kept[k], spans[k] = spans[k].Slice(0, n), spans[k].Slice(n, spans[k].Len())
	return nil, kept, spans[k:]
}

// carve copies src into the free end of *block, or of a new block of at least
// least items, and returns the copy, which nothing writes again: a block goes
// once the ring has evicted every event in it (carved). A nil src stays nil.
func carve[T any](block *[]T, src []T, least int) []T {
	if src == nil {
		return nil
	}
	if cap(*block)-len(*block) < len(src) {
		*block = make([]T, 0, max(least, len(src)))
	}
	start := len(*block)
	*block = append(*block, src...)
	return (*block)[start:len(*block):len(*block)]
}

// oldestLocked returns the LSN of the oldest ring event — lsn+1 when the
// ring is empty (every "future" LSN is trivially covered).
func (p *Primary) oldestLocked() uint64 {
	return p.lsn - uint64(p.ringLen) + 1
}

// follow registers a follower's wake channel and reports whether it can
// resume from fromLSN under runID: the run matches and the ring still holds
// every event after fromLSN. Otherwise the follower needs a snapshot.
func (p *Primary) follow(wake chan struct{}, fromLSN uint64, runID string) (resume bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wakes[wake] = struct{}{}
	return runID == p.run && fromLSN <= p.lsn && fromLSN+1 >= p.oldestLocked()
}

func (p *Primary) unfollow(wake chan struct{}) {
	p.mu.Lock()
	delete(p.wakes, wake)
	p.mu.Unlock()
}

// spoolAtCut spools the engine's state at one cut and reads the run and the
// boundary inside it: nothing is published while the cut is held, so every
// event is in the spool or after the boundary and never both. The spool
// holds the rows as a heap read builds them, a copy of their values, and is
// streamed after the cut is released, so a slow or wedged replica never
// freezes the engine for the transfer; events published meanwhile wait in
// the ring.
func (p *Primary) spoolAtCut() (spool []Event, run string, boundary uint64, err error) {
	if p.snapshot == nil {
		return nil, "", 0, fmt.Errorf("repl: no snapshot producer configured")
	}
	err = p.snapshot(func() {
		p.mu.Lock()
		run, boundary = p.run, p.lsn
		p.mu.Unlock()
	}, func(ev Event) error { spool = append(spool, ev); return nil })
	return spool, run, boundary, err
}

// eventsAfter appends to dst, up to its capacity, the ring's events after
// lsn. It fails when the run is no longer runID or the ring has evicted
// lsn+1: the follower must reconnect and resync.
func (p *Primary) eventsAfter(dst []Event, lsn uint64, runID string) ([]Event, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if runID != p.run {
		return dst, fmt.Errorf("repl: a new run began")
	}
	if lsn+1 < p.oldestLocked() {
		p.overflows.Inc()
		return dst, fmt.Errorf("repl: replica at lsn %d fell behind the ring, which starts at %d", lsn, p.oldestLocked())
	}
	for i := p.ringLen - int(p.lsn-lsn); i < p.ringLen && len(dst) < cap(dst); i++ {
		dst = append(dst, p.ring[(p.head+i)%len(p.ring)])
	}
	return dst, nil
}

// writeDeadline bounds each flush to a replica so a hung connection
// cannot pin its serving goroutine.
const writeDeadline = 30 * time.Second

// ServeConn streams replication frames to one replica until the
// connection fails, the replica falls behind the ring, a new run begins or
// the primary closes.
// fromLSN is the last LSN the replica has applied under runID ("", 0 for a
// fresh replica). The caller owns conn and closes it afterwards; ServeConn
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

	// Registered before the first look at the ring, so no publish after it
	// goes unnoticed.
	wake := make(chan struct{}, 1)
	defer p.unfollow(wake)
	var err error
	if p.follow(wake, fromLSN, runID) {
		err = send(&Event{Kind: KindResume, Run: runID, LSN: fromLSN})
	} else {
		var spool []Event
		if spool, runID, fromLSN, err = p.spoolAtCut(); err != nil {
			return err
		}
		err = send(&Event{Kind: KindSnapBegin, Run: runID})
		for i := 0; err == nil && i < len(spool); i++ {
			err = send(&spool[i])
		}
		if err == nil {
			err = send(&Event{Kind: KindSnapEnd, LSN: fromLSN})
			p.snaps.Inc()
		}
	}
	if err != nil {
		return err
	}

	// The tail: catch-up and live events alike are read from the ring after
	// the cursor, a batch a pass, and the loop sleeps only once it has sent
	// everything there is, pinging an idle replica with the primary's LSN and
	// clock. Once the primary closes it sends what the ring holds and returns.
	ticker := time.NewTicker(p.pingEvery)
	defer ticker.Stop()
	batch := make([]Event, 0, tailBatch)
	for closed := false; ; {
		if batch, err = p.eventsAfter(batch[:0], fromLSN, runID); err != nil {
			return err
		}
		if closed && len(batch) == 0 {
			return fmt.Errorf("repl: the primary has closed")
		}
		for i := 0; err == nil && i < len(batch); i++ {
			err = send(&batch[i])
		}
		if err != nil {
			return err
		}
		if n := len(batch); n > 0 {
			fromLSN = batch[n-1].LSN
			clear(batch) // let go of what the ring may evict
			if n == cap(batch) {
				continue
			}
		}
		if err := flush(); err != nil {
			return err
		}
		select {
		case <-wake:
		case <-p.done:
			closed = true
		case <-ticker.C:
			if err := send(&Event{Kind: KindPing, LSN: p.LSN(), Wall: time.Now().UnixMicro()}); err != nil {
				return err
			}
		}
	}
}
