package streamrel

import (
	"errors"
	"fmt"
	"os"

	"streamrel/internal/catalog"
	"streamrel/internal/metrics"
	"streamrel/internal/repl"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// ErrReadReplica is returned by write paths while the engine runs as a
// read replica; Promote lifts the restriction.
var ErrReadReplica = errors.New("streamrel: engine is a read replica; writes are rejected (promote to accept writes)")

// Repl returns the engine's replication hub, or nil when Config.Replicate
// is off. The server wires it to the "replicate" op; tests use it to read
// the current LSN.
func (e *Engine) Repl() *repl.Primary { return e.hub }

// Why a base-stream channel's batch shipped as a stream append and a separate
// WAL batch, not as one event: Engine.unfused's indices, and the reason label
// of streamrel_repl_unfused_batches_total.
const (
	unfusedSecondChannel = iota // the stream feeds more than one channel
	unfusedCommitFailed         // the channel's write failed; only the append ships
)

// initReplication builds the hub and wires the publish hooks. Called once
// from Open, before any writes.
func (e *Engine) initReplication() {
	e.hub = repl.NewPrimary(repl.Config{Metrics: e.reg, Snapshot: e.replicationSnapshot})
	for i, reason := range [...]string{"second_channel", "commit_failed"} {
		e.unfused[i] = e.reg.Counter("streamrel_repl_unfused_batches_total",
			"raw-archive channel batches that crossed the replication link as a stream append and a separate WAL batch instead of one event",
			metrics.L("reason", reason))
	}
	// The repl package stays trace-agnostic: the hook narrows the trace
	// context to the bare ID the wire format carries.
	e.rt.OnIngest = func(tc trace.Ctx, stream string, rows []types.Row) {
		e.hub.PublishAppend(stream, rows, tc.ID)
	}
	e.rt.OnAdvance = e.hub.PublishAdvance
}

// writeGate rejects user writes while the engine is a replica. Replicated
// apply bypasses it by calling the internal paths directly.
func (e *Engine) writeGate() error {
	if e.replicaMode.Load() {
		return ErrReadReplica
	}
	return nil
}

// ReplicaMode reports whether the engine currently rejects writes.
func (e *Engine) ReplicaMode() bool { return e.replicaMode.Load() }

// BeginReplica puts the engine into replica mode: user writes are
// rejected, channel taps stop writing tables (the primary's channel
// writes arrive through the replicated log instead — a raw archive's with
// the batch it stored, as one KindArchive event, every other channel's as a
// WAL batch — avoiding double-apply), and the late-row policy becomes clamp
// so replayed stream rows whose timestamps the primary already clamped are
// accepted verbatim.
func (e *Engine) BeginReplica() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replicaMode.Load() {
		return
	}
	e.prevLate = e.rt.Late
	e.rt.Late = stream.LateClamp
	e.replicaMode.Store(true)
}

// Promote lifts replica mode: the engine accepts writes again and channel
// taps resume writing tables. The caller must have stopped applying
// replicated events first. The engine keeps its own replication hub (and
// run ID), so replicas can chain off a promoted node — their run IDs
// won't match and they will resync from it.
func (e *Engine) Promote() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.replicaMode.Load() {
		return
	}
	e.rt.Late = e.prevLate
	e.replicaMode.Store(false)
}

// ---------------------------------------------------------------- apply

// ApplyEvent applies one event of the primary's run, the one way a replica's
// events reach its engine. On success (run, ev.LSN) is the engine's resume
// point (ReplicaMark), at LSN 0 (a snapshot's state frames) none. A write the
// event makes durable logs the mark in its WAL batch, so the two recover
// together (the hub does not republish it: it is this engine's); a stream
// append or a heartbeat moves it in memory only; a snapshot's begin drops all
// the engine holds, mark included; a ping or a resume applies nothing. Stream
// rows keep the primary's CQTIME stamps, and a non-zero ev.Trace is the
// primary's trace, which local fires join. kept says a stream still holds the
// event's rows (AppendBorrowed's). One goroutine applies events to an engine.
func (e *Engine) ApplyEvent(run string, ev *repl.Event) (kept bool, err error) {
	var mark wal.Record
	if ev.LSN > 0 {
		mark = wal.Record{Kind: wal.RecMark, SQL: run, RowID: ev.LSN}
	}
	switch ev.Kind {
	case repl.KindSnapBegin:
		return false, e.reset()
	case repl.KindPing, repl.KindResume: // a ping's LSN is the primary's, a resume's this engine's already
		return false, nil
	case repl.KindWAL, repl.KindSnapEnd:
		err = e.applyRecords(ev.Recs, mark)
	case repl.KindAppend:
		e.mu.RLock()
		kept, err = e.rt.PushBatch(e.tracer.Adopt(ev.Trace), ev.Stream, ev.Rows, nil)
		e.mu.RUnlock()
	case repl.KindArchive:
		kept, err = e.applyArchive(ev, mark)
	case repl.KindAdvance:
		e.mu.RLock()
		err = e.rt.Advance(ev.Stream, ev.TS)
		e.mu.RUnlock()
	default:
		return false, fmt.Errorf("streamrel: replication event of unknown kind %d", ev.Kind)
	}
	if err == nil && mark.Kind != 0 {
		e.mu.RLock()
		e.mark = mark
		e.mu.RUnlock()
	}
	return kept, err
}

// ReplicaMark returns the engine's resume point as a replica: every event of
// the primary's run up to lsn is applied here. ("", 0) asks for a snapshot.
func (e *Engine) ReplicaMark() (run string, lsn uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mark.SQL, e.mark.RowID
}

// ApplyReplicatedAppend applies rows the primary accepted into a base stream,
// as a KindAppend event at no LSN: the mark stays where it was.
func (e *Engine) ApplyReplicatedAppend(streamName string, rows []Row, traceID uint64) error {
	_, err := e.ApplyEvent("", &repl.Event{Kind: repl.KindAppend, Stream: streamName, Rows: rows, Trace: traceID})
	return err
}

// applyRecords is the one record applier: a replica applies its primary's WAL
// batches and snapshot through it, and recovery the checkpoint and the log.
// mark, if any, is logged with the batch (with its last statement, for DDL)
// and is then the engine's resume point. A batch is DDL or data, not both.
// DDL re-executes its SQL, which logs and republishes it; data applies inserts
// and deletes at the logged RowIDs in one transaction, logged and republished
// likewise, and a table's next RowID, logged only (this engine's followers
// number from the rows they are sent). Row apply is idempotent: an insert
// into an occupied slot keeps the row stored there, a delete of a missing or
// deleted one does nothing. The transaction keeps recs' row containers,
// pointed at the heap's copies: the rows' values are the caller's to reuse.
func (e *Engine) applyRecords(recs []wal.Record, mark wal.Record) error {
	if len(recs) == 0 && mark.Kind == 0 {
		return nil
	}
	if len(recs) > 0 && recs[0].Kind == wal.RecDDL {
		for i, rec := range recs {
			stmt, err := sql.Parse(rec.SQL)
			if err != nil {
				return fmt.Errorf("streamrel: replicated DDL %q: %w", rec.SQL, err)
			}
			var at wal.Record
			if i == len(recs)-1 {
				at = mark // logged with the last statement: then all of them are applied
			}
			if _, err := e.execDDL(stmt, rec.SQL, at); err != nil {
				return err
			}
		}
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	w := e.beginWrite(&e.applyScratch)
	w.mark = mark
	for _, rec := range recs {
		t, ok := e.cat.Table(rec.Table)
		if !ok {
			return w.fail(fmt.Errorf("streamrel: replicated write to unknown table %q", rec.Table))
		}
		switch rid := storage.RowID(rec.RowID); rec.Kind {
		case wal.RecInsert: // a run of one, from a log or a primary older than RecRows
			rec.Runs, rec.Rows = []wal.RowIDRun{{First: rec.RowID, N: 1}}, []types.Row{rec.Row}
			fallthrough
		case wal.RecRows:
			if err := w.insert(t, rec.Runs, rec.Rows); err != nil {
				return w.fail(err)
			}
		case wal.RecDelete:
			_ = w.deleteRow(t, rid) // already applied: the row is gone or deleted, and stays so
		case wal.RecNext:
			t.Heap.EnsureNext(rid)
			w.local = append(w.local, rec)
		default:
			return w.fail(fmt.Errorf("streamrel: replicated batch mixes DDL and data"))
		}
	}
	return w.commit()
}

// applyArchive applies a KindArchive event: rows the primary accepted into a
// base stream and archived, unchanged, into a table. One decoded row serves
// the stream and is copied into the heap at the primary's RowIDs, in one
// transaction logged with mark and idempotent like applyRecords, which commits
// under the stream's delivery lock before the batch is delivered (a window it
// closes sees it archived, as on the primary). This engine's hub republishes
// the one event when every row was new here, else the append and what it did
// insert.
func (e *Engine) applyArchive(ev *repl.Event, mark wal.Record) (kept bool, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.cat.Table(ev.Table)
	if !ok || len(ev.Runs) == 0 {
		return false, fmt.Errorf("streamrel: replicated write of %d rows to %q: no such table, or no RowID runs", len(ev.Rows), ev.Table)
	}
	tc := e.tracer.Adopt(ev.Trace)
	return e.rt.PushArchived(tc, ev.Stream, ev.Rows, func(in *stream.Ingest) error {
		w := e.beginWrite(&e.applyScratch)
		w.tc, w.mark = tc, mark
		if err := w.insert(t, ev.Runs, ev.Rows); err != nil {
			return w.fail(err)
		}
		if in.Owed() {
			if len(w.recs) == 1 && len(w.recs[0].Rows) == len(ev.Rows) {
				w.in = in
			} else {
				in.Publish()
			}
		}
		return w.commit()
	})
}

// reset drops every object and all durable state, for a snapshot from a (new)
// primary to replace. Dependency order: channels first, then derived streams,
// base streams, views, tables (indexes go with their tables).
func (e *Engine) reset() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hub != nil && len(e.ddlLog) > 0 {
		e.hub.NewRun() // this engine's followers hold what it is about to drop
	}
	var drops []sql.Drop
	for _, ch := range e.cat.Channels() {
		drops = append(drops, sql.Drop{Kind: sql.ObjChannel, Name: ch.Name})
	}
	for _, d := range e.cat.DerivedStreams() {
		drops = append(drops, sql.Drop{Kind: sql.ObjStream, Name: d.Name})
	}
	for _, name := range e.cat.Names("streams") {
		// Engine-owned telemetry streams are never part of the primary's
		// snapshot; they survive the reset so the local monitor keeps
		// reporting through the resync.
		if _, derived := e.cat.Derived(name); !derived && !isSysName(name) {
			drops = append(drops, sql.Drop{Kind: sql.ObjStream, Name: name})
		}
	}
	for _, name := range e.cat.Names("views") {
		drops = append(drops, sql.Drop{Kind: sql.ObjView, Name: name})
	}
	for _, t := range e.cat.Tables() {
		drops = append(drops, sql.Drop{Kind: sql.ObjTable, Name: t.Name})
	}
	for i := range drops {
		if _, err := e.execDrop(&drops[i]); err != nil {
			return err
		}
	}
	e.ddlLog, e.mark, e.gen = nil, wal.Record{}, 0
	if e.log != nil {
		if err := e.log.Truncate(); err != nil {
			return err
		}
		if err := os.Remove(e.checkpointPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------- snapshot

// scanBatchRows sizes the row batches scanTable emits: a synced checkpoint
// batch is one fsync inside the cut, so fewer, larger batches — the byte
// bound is what keeps a batch of wide rows readable.
const scanBatchRows = 4096

// scanTable hands emit every row of t visible at snap, as inserts at their
// RowIDs: one heap read (storage.Heap.Read) of at most scanBatchRows rows is
// one wal.RecRows record, cut where it exceeds repl.MaxEventBytes — so neither
// a snapshot frame nor a checkpoint batch can exceed the size its reader
// accepts, however wide the rows. emit owns the batch it is handed. A failing
// emit stops the scan and its error is the one returned.
func scanTable(t *catalog.Table, snap txn.Snapshot, emit func([]wal.Record) error) error {
	var ids []storage.RowID
	for pos, end := storage.RowID(0), t.Heap.NextID(); pos < end; {
		rows := make([]types.Row, 0, min(scanBatchRows, end-pos))
		var runs []wal.RowIDRun
		ids = ids[:0]
		pos = t.Heap.Read(snap, pos, end, scanBatchRows, &rows, &ids)
		for _, id := range ids {
			runs = wal.AppendRun(runs, uint64(id))
		}
		var err error
		repl.Chunks(runs, rows, func(runs []wal.RowIDRun, rows []types.Row, _ int) {
			if err == nil {
				err = emit([]wal.Record{{Kind: wal.RecRows, Table: t.Name, Runs: runs, Rows: rows}})
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replicationSnapshot is the hub's repl.SnapshotFunc: inside one cut, atCut
// (the new follower's subscription and boundary), then the dump, each batch a
// KindWAL event — the last one the tables' next RowIDs, as wal.RecNext
// records.
func (e *Engine) replicationSnapshot(atCut func(), emit func(repl.Event) error) error {
	return e.cut(func(snap txn.Snapshot) error {
		if atCut != nil {
			atCut()
		}
		return e.dump(snap, func(batch []wal.Record) error {
			return emit(repl.Event{Kind: repl.KindWAL, Recs: batch})
		})
	})
}
