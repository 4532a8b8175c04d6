package streamrel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// execDDL applies a DDL statement to the catalog and runtime, and logs its
// SQL text — with at, when that is a replica's mark (ApplyEvent) — so
// WAL replay re-executes it (paper §4: durable state replays; CQ runtime
// state is then rebuilt from Active Tables). Recovery has no log open and no
// hub yet: what it replays is remembered in ddlLog and goes nowhere else.
func (e *Engine) execDDL(stmt sql.Statement, sqlText string, at wal.Record) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	skipped, err := e.applyDDL(stmt)
	if err != nil {
		return nil, err
	}
	if !skipped {
		e.ddlLog = append(e.ddlLog, sqlText)
		recs := []wal.Record{{Kind: wal.RecDDL, SQL: sqlText}, at}
		if at.Kind == 0 {
			recs = recs[:1]
		} else {
			e.mark = at // moves with the statement: a cut holds both or neither
		}
		if e.log != nil {
			if err := e.log.Append(recs); err != nil {
				return nil, err
			}
		}
		if e.hub != nil {
			_ = e.hub.PublishTxn(recs[:1], nil, nil, 0) // no commit, no error
		}
	}
	return &Result{}, nil
}

// applyDDL mutates catalog/runtime state. It returns skipped=true when an
// IF [NOT] EXISTS clause made the statement a no-op.
func (e *Engine) applyDDL(stmt sql.Statement) (skipped bool, err error) {
	switch s := stmt.(type) {
	case *sql.CreateTable:
		schema, _, err := columnsToSchema(s.Columns)
		if err != nil {
			return false, err
		}
		if _, err := e.cat.CreateTable(s.Name, schema); err != nil {
			return existsOK(s.IfNotExists, err)
		}
		return false, nil

	case *sql.CreateStream:
		schema, cqCol, err := columnsToSchema(s.Columns)
		if err != nil {
			return false, err
		}
		if cqCol < 0 {
			return false, fmt.Errorf("streamrel: stream %q needs a CQTIME column (e.g. atime timestamp CQTIME USER)", s.Name)
		}
		system := s.Columns[cqCol].CQTimeSystem
		partCol := -1
		if s.PartitionBy != "" {
			for i, c := range s.Columns {
				if c.Name == s.PartitionBy {
					partCol = i
					break
				}
			}
			if partCol < 0 {
				return false, fmt.Errorf("streamrel: stream %q: PARTITION BY column %q not found", s.Name, s.PartitionBy)
			}
		}
		if _, err := e.cat.CreateStreamPartitioned(s.Name, schema, cqCol, system, partCol); err != nil {
			return existsOK(s.IfNotExists, err)
		}
		if err := e.rt.RegisterSource(s.Name, schema, cqCol); err != nil {
			return false, err
		}
		return false, nil

	case *sql.CreateDerivedStream:
		return e.createDerivedStream(s)

	case *sql.CreateView:
		// Validate the view query plans (against a scratch planner so the
		// stream-leaf bookkeeping does not leak).
		if _, err := (&plan.Planner{Cat: e.cat}).BuildSelect(s.Query); err != nil {
			return false, fmt.Errorf("streamrel: invalid view query: %w", err)
		}
		err := e.cat.CreateView(&catalog.View{Name: s.Name, Query: s.Query})
		if err != nil {
			return existsOK(s.IfNotExists, err)
		}
		return false, nil

	case *sql.CreateChannel:
		return e.createChannel(s)

	case *sql.CreateIndex:
		ix, err := e.cat.CreateIndex(s.Name, s.Table, s.Columns)
		if err != nil {
			return existsOK(s.IfNotExists, err)
		}
		// Backfill from the current table contents.
		t, _ := e.cat.Table(s.Table)
		t.Heap.Scan(e.mgr.SnapshotNow(), func(rid storage.RowID, row types.Row) bool {
			ix.Tree.Insert(ix.KeyOf(row), rid)
			return true
		})
		return false, nil

	case *sql.Drop:
		return e.execDrop(s)
	}
	return false, fmt.Errorf("streamrel: unsupported DDL %T", stmt)
}

// columnsToSchema converts parsed column definitions, returning the CQTIME
// column index (or -1).
func columnsToSchema(cols []sql.ColumnDef) (types.Schema, int, error) {
	schema := make(types.Schema, len(cols))
	cqCol := -1
	seen := map[string]bool{}
	for i, c := range cols {
		if seen[c.Name] {
			return nil, 0, fmt.Errorf("streamrel: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		schema[i] = types.Column{Name: c.Name, Type: c.Type}
		if c.CQTime {
			if cqCol >= 0 {
				return nil, 0, fmt.Errorf("streamrel: multiple CQTIME columns")
			}
			if c.Type != types.TypeTimestamp {
				return nil, 0, fmt.Errorf("streamrel: CQTIME column %q must be TIMESTAMP", c.Name)
			}
			cqCol = i
		}
	}
	return schema, cqCol, nil
}

// createDerivedStream plans the defining query, registers the derived
// source, and starts the always-on pipeline (paper §3.2: a derived stream
// "runs in an always on mode until it is explicitly dropped").
func (e *Engine) createDerivedStream(s *sql.CreateDerivedStream) (bool, error) {
	if _, ok := e.cat.Derived(s.Name); ok && s.IfNotExists {
		return true, nil
	}
	p, err := e.planner.BuildSelect(s.Query)
	if err != nil {
		return false, fmt.Errorf("streamrel: derived stream %q: %w", s.Name, err)
	}
	if p.Stream == nil {
		return false, fmt.Errorf("streamrel: derived stream %q: defining query must read a windowed stream", s.Name)
	}
	d := &catalog.DerivedStream{
		Name:     s.Name,
		Schema:   p.Columns,
		Query:    s.Query,
		CloseCol: p.CloseCol,
	}
	if err := e.cat.CreateDerivedStream(d); err != nil {
		return existsOK(s.IfNotExists, err)
	}
	if err := e.rt.RegisterSource(s.Name, p.Columns, -1); err != nil {
		e.cat.Drop(sql.ObjStream, s.Name)
		return false, err
	}
	pipe, err := e.rt.Subscribe(p, e.rt.DerivedSink(s.Name))
	if err != nil {
		e.rt.DropSource(s.Name)
		e.cat.Drop(sql.ObjStream, s.Name)
		return false, err
	}
	e.derivedPipes[s.Name] = pipe
	return false, nil
}

// createChannel validates schema compatibility and attaches the tap that
// copies derived-stream emissions into the target table, making it an
// Active Table (paper §3.3).
func (e *Engine) createChannel(s *sql.CreateChannel) (bool, error) {
	if _, ok := e.cat.Channel(s.Name); ok && s.IfNotExists {
		return true, nil
	}
	// The source is a derived stream (the paper's Example 4), or a base
	// stream — which archives the raw feed row by row (APPEND only).
	var srcSchema types.Schema
	if d, ok := e.cat.Derived(s.From); ok {
		srcSchema = d.Schema
	} else if bs, ok := e.cat.Stream(s.From); ok {
		if s.Mode == sql.ChannelReplace {
			return false, fmt.Errorf("streamrel: channel %q: REPLACE requires a derived stream (base streams have no emissions)", s.Name)
		}
		srcSchema = bs.Schema
	} else {
		return false, fmt.Errorf("streamrel: channel %q: stream %q does not exist", s.Name, s.From)
	}
	t, ok := e.cat.Table(s.Into)
	if !ok {
		return false, fmt.Errorf("streamrel: channel %q: table %q does not exist", s.Name, s.Into)
	}
	if len(srcSchema) != len(t.Schema) {
		return false, fmt.Errorf("streamrel: channel %q: stream has %d columns, table has %d",
			s.Name, len(srcSchema), len(t.Schema))
	}
	for i := range srcSchema {
		if srcSchema[i].Type != t.Schema[i].Type {
			return false, fmt.Errorf("streamrel: channel %q: column %d is %s in the stream but %s in the table",
				s.Name, i+1, srcSchema[i].Type, t.Schema[i].Type)
		}
	}
	ch := &catalog.Channel{Name: s.Name, From: s.From, Into: s.Into, Mode: s.Mode}
	if err := e.cat.CreateChannel(ch); err != nil {
		return existsOK(s.IfNotExists, err)
	}
	var scratch writeScratch
	detach, err := e.rt.Tap(s.From, func(tc trace.Ctx, closeTS int64, rows []types.Row, in *stream.Ingest) error {
		return e.channelWrite(tc, ch, rows, in, &scratch)
	})
	if err != nil {
		e.cat.Drop(sql.ObjChannel, s.Name)
		return false, err
	}
	e.channelTaps[s.Name] = detach
	return false, nil
}

// channelWrite applies one derived-stream emission to the channel's table
// in a transaction: REPLACE diffs the emission against the visible
// contents and applies a replace delta — delete only vanished rows,
// insert only new ones — so an unchanged group costs no heap or WAL
// churn; APPEND just adds. The write transaction makes the update atomic
// at the window boundary; it runs on whichever goroutine is draining the
// producing pipeline's mailbox — the appender, or a pool worker with
// Config.ParallelCQ > 0 (heap, index and WAL are internally locked).
//
// A base stream's batch arrives on the delivering goroutine, under the
// source's lock, with the replication event it still owes (in). The table
// takes the delivered rows' values as they are — createChannel requires the
// stream's column types, and the stream casts every append to them — so the
// commit publishes batch and insert (the heap's copies) as one event
// (writeTxn.in). A second channel on the stream, which finds the event
// published, and a failed write, after which the stream's append ships
// alone, are counted in streamrel_repl_unfused_batches_total.
func (e *Engine) channelWrite(tc trace.Ctx, ch *catalog.Channel, rows []types.Row, in *stream.Ingest, scratch *writeScratch) (err error) {
	if e.replicaMode.Load() {
		// A replica's channels stay quiet: the primary's channel writes
		// arrive through the replicated log (KindArchive, KindWAL), so writing
		// here would apply every emission twice. Promote re-enables local
		// channel writes.
		return nil
	}
	if in != nil && !in.Owed() {
		e.unfused[unfusedSecondChannel].Inc()
	}
	defer func() {
		if err != nil && in.Owed() {
			e.unfused[unfusedCommitFailed].Inc()
		}
	}()
	t, ok := e.cat.Table(ch.Into)
	if !ok {
		return fmt.Errorf("streamrel: channel %q: table %q vanished", ch.Name, ch.Into)
	}
	w := e.beginWrite(scratch)
	w.tc = tc
	// The heap copies what it stores (storage.Heap), so neither a decoded
	// batch nor a view's rows are pinned by the table, and the insert points
	// stored at the copies for the log, and the replication ring keeps spans
	// of those copies: stored is the transaction's scratch. The rows are of
	// the table's column types already (createChannel).
	w.rows = append(w.rows[:0], rows...)
	stored := w.rows
	if in.Owed() {
		w.in = in
	}
	if ch.Mode == sql.ChannelReplace {
		// Replace delta: want holds each new row's multiplicity. Visible
		// rows matching a wanted row are kept (decrement); the rest are
		// deleted. Whatever multiplicity remains is inserted. The table
		// converges to exactly the emission's multiset, as the old
		// delete-all-insert-all did, touching only changed rows.
		want := make(map[string]int, len(stored))
		for _, cr := range stored {
			want[cr.Key()]++
		}
		var stale []storage.RowID
		t.Heap.Scan(w.tx.Snap, func(rid storage.RowID, r types.Row) bool {
			if k := r.Key(); want[k] > 0 {
				want[k]--
			} else {
				stale = append(stale, rid)
			}
			return true
		})
		for _, rid := range stale {
			if err := w.deleteRow(t, rid); err != nil {
				return w.fail(err)
			}
		}
		fresh := stored[:0]
		for _, cr := range stored {
			if k := cr.Key(); want[k] > 0 {
				want[k]--
				fresh = append(fresh, cr)
			}
		}
		stored = fresh
	}
	if err := w.insert(t, nil, stored); err != nil {
		return w.fail(err)
	}
	return w.commit()
}

func (e *Engine) execDrop(s *sql.Drop) (bool, error) {
	// Runtime teardown before catalog removal.
	switch s.Kind {
	case sql.ObjStream:
		if pipe, ok := e.derivedPipes[s.Name]; ok {
			if err := e.cat.Drop(s.Kind, s.Name); err != nil {
				return e.dropMissOK(s, err)
			}
			e.rt.Unsubscribe(pipe)
			e.rt.DropSource(s.Name)
			delete(e.derivedPipes, s.Name)
			return false, nil
		}
		if err := e.cat.Drop(s.Kind, s.Name); err != nil {
			return e.dropMissOK(s, err)
		}
		e.rt.DropSource(s.Name)
		return false, nil
	case sql.ObjChannel:
		if err := e.cat.Drop(s.Kind, s.Name); err != nil {
			return e.dropMissOK(s, err)
		}
		if detach, ok := e.channelTaps[s.Name]; ok {
			detach()
			delete(e.channelTaps, s.Name)
		}
		return false, nil
	default:
		if err := e.cat.Drop(s.Kind, s.Name); err != nil {
			return e.dropMissOK(s, err)
		}
		return false, nil
	}
}

// existsOK is what a CREATE that failed with err returns: skipped, when IF
// NOT EXISTS met the name taken.
func existsOK(ifNotExists bool, err error) (bool, error) {
	if ifNotExists && errors.As(err, &catalog.ErrExists{}) {
		return true, nil
	}
	return false, err
}

func (e *Engine) dropMissOK(s *sql.Drop, err error) (bool, error) {
	if s.IfExists && errors.As(err, &catalog.ErrNotFound{}) {
		return true, nil
	}
	return false, err
}

// ------------------------------------------------------- write txns

// writeTxn couples an MVCC transaction with its write set and index
// maintenance. The write set (recs) is what commit logs, as one atomic batch,
// and publishes. An insert is one wal.RecRows record — the table, the RowID
// runs the heap assigned (or the primary's), the caller's own row slice —
// and only a delete, a next RowID or a mark is a record per row.
type writeTxn struct {
	e    *Engine
	tx   txn.Txn
	recs []wal.Record
	runs []wal.RowIDRun // what inserts at the next RowIDs were assigned
	// tc carries a channel write's trace context into the WAL append and
	// across the replication wire; zero for untraced writes.
	tc trace.Ctx
	// undo reverts delete stamps if the transaction aborts; inserted
	// versions need no undo (they stay invisible forever).
	undo  []func()
	rows  []types.Row     // a channel write's rows, cast to the table's types
	spans [][]types.Datum // recs' inserted rows in their heaps, for the hub (storage.Heap.Spans)
	// local records are logged with the batch and not passed on to the hub: a
	// table's next RowID from a snapshot and, when set, mark, the replica's
	// resume point this batch is the state as of (ApplyEvent): commit
	// makes it the engine's.
	local []wal.Record
	mark  wal.Record
	// in is set when the transaction does nothing but store a base stream's
	// batch as it was delivered — recs is that one insert: commit then
	// publishes batch and insert as one replication event and settles in.
	in      *stream.Ingest
	scratch *writeScratch // takes the transaction back once it has ended
}

// writeScratch keeps a write path's (a channel's, a replica's apply) spare
// transaction, write set and row container for its next write, which then
// allocates none of them. The log has encoded a write set, and the ring copied
// its records and spans, when it is back.
type writeScratch struct{ spare atomic.Pointer[writeTxn] }

// beginWrite starts a write transaction, s's spare if it has one (s nil: none).
func (e *Engine) beginWrite(s *writeScratch) *writeTxn {
	var w *writeTxn
	if s != nil {
		w = s.spare.Swap(nil)
	}
	if w == nil {
		w = &writeTxn{e: e, scratch: s}
	}
	w.tx = e.mgr.Begin()
	return w
}

// end hands the transaction back to its scratch, holding no row.
func (w *writeTxn) end() {
	if w.scratch == nil {
		return
	}
	clear(w.recs[:cap(w.recs)]) // a commit's mark and local records sit past len
	clear(w.local)
	clear(w.undo)
	clear(w.rows)
	clear(w.spans)
	*w = writeTxn{e: w.e, scratch: w.scratch, recs: w.recs[:0], runs: w.runs[:0], undo: w.undo[:0], rows: w.rows[:0], spans: w.spans[:0], local: w.local[:0]}
	w.scratch.spare.Store(w)
}

// insert stores copies of rows in t — one run at the next RowIDs or, with
// runs (replicated apply, recovery), at the RowIDs the primary logged —
// points rows at them, indexes them and adds the insert to the write set with
// the caller's container, which it must then leave alone. Rows that were here
// already (an event applied again) keep what is stored, and are neither
// indexed nor logged a second time.
func (w *writeTxn) insert(t *catalog.Table, runs []wal.RowIDRun, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	var stale []int // the rows that were here already
	next := 0
	for _, run := range runs {
		if run.N > uint64(len(rows)-next) {
			break
		}
		occupied, err := t.Heap.InsertRunAt(w.tx.ID, storage.RowID(run.First), rows[next:next+int(run.N)])
		if err != nil {
			return err
		}
		for _, i := range occupied {
			stale = append(stale, next+i)
		}
		next += int(run.N)
	}
	if runs == nil {
		first, err := t.Heap.InsertRun(w.tx.ID, rows)
		if err != nil {
			return err
		}
		w.runs = append(w.runs, wal.RowIDRun{First: uint64(first), N: uint64(len(rows))})
		runs, next = w.runs[len(w.runs)-1:len(w.runs):len(w.runs)], len(rows)
	}
	if next != len(rows) {
		return fmt.Errorf("streamrel: %d rows for %s with RowID runs for %d", len(rows), t.Name, next)
	}
	if drop := stale != nil; drop || len(t.Indexes) > 0 {
		var keptRuns []wal.RowIDRun
		var kept []types.Row
		next = 0
		for _, run := range runs {
			for rid := run.First; rid < run.First+run.N; rid, next = rid+1, next+1 {
				if len(stale) > 0 && stale[0] == next {
					stale = stale[1:]
					continue
				}
				for _, ix := range t.Indexes {
					ix.Tree.Insert(ix.KeyOf(rows[next]), storage.RowID(rid))
				}
				if drop {
					keptRuns, kept = wal.AppendRun(keptRuns, rid), append(kept, rows[next])
				}
			}
		}
		if drop {
			runs, rows = keptRuns, kept
		}
	}
	if len(rows) > 0 {
		w.recs = append(w.recs, wal.Record{Kind: wal.RecRows, Table: t.Name, Runs: runs, Rows: rows})
		for i := 0; w.e.hub != nil && i < len(runs); i++ {
			w.spans = t.Heap.Spans(storage.RowID(runs[i].First), int(runs[i].N), w.spans)
		}
	}
	return nil
}

func (w *writeTxn) deleteRow(t *catalog.Table, rid storage.RowID) error {
	if err := t.Heap.Delete(w.tx.ID, rid); err != nil {
		return err
	}
	heap, id := t.Heap, rid
	w.undo = append(w.undo, func() { heap.UndoDelete(w.tx.ID, id) })
	// Index entries stay: MVCC visibility filters them, and a checkpoint's
	// vacuum deletes those of the versions it reclaims.
	w.recs = append(w.recs, wal.Record{Kind: wal.RecDelete, Table: t.Name, RowID: uint64(rid)})
	return nil
}

// commit logs and commits inside the commit gate, held shared: a cut
// (Engine.cut) sees the transaction logged and committed — and the engine's
// resume point moved to its mark — or none of it.
func (w *writeTxn) commit() (err error) {
	w.e.gate.RLock()
	defer w.e.gate.RUnlock()
	if logged := append(w.recs, w.local...); w.e.log != nil && (len(logged) > 0 || w.mark.Kind != 0) {
		if w.mark.Kind != 0 {
			logged = append(logged, w.mark)
		}
		w.recs = logged[:len(w.recs)] // what the batch grew into serves the next one
		if err := w.e.log.AppendCtx(w.tc, logged); err != nil {
			return w.fail(err)
		}
	}
	switch {
	case w.e.hub == nil || len(w.recs) == 0:
		err = w.tx.Commit()
	case w.in == nil:
		// The hub commits the transaction inside its commit lock, so the
		// published LSN order matches commit order across transactions
		// (stream ingest publishes under a separate lock and never waits
		// behind a commit).
		err = w.e.hub.PublishTxn(w.recs, w.spans, w.tx.Commit, w.tc.ID)
	default:
		// This goroutine also holds the source's delivery lock, so the one
		// event sits in the stream's delivery order too. A failed commit
		// leaves in owed: the batch still entered the stream, and deliver
		// publishes its append.
		ins := &w.recs[0]
		if err = w.e.hub.PublishArchive(w.in.Stream(), ins.Table, ins.Runs, ins.Rows, w.spans, w.tx.Commit, w.tc.ID); err == nil {
			w.in.Settle()
		}
	}
	if err == nil && w.mark.Kind != 0 {
		w.e.mark = w.mark
	}
	w.end()
	return err
}

func (w *writeTxn) fail(err error) error {
	for _, u := range w.undo {
		u()
	}
	w.tx.Abort()
	w.end()
	return err
}

// execCtx builds an execution context over a fresh snapshot.
func (e *Engine) execCtx() *exec.Ctx {
	return &exec.Ctx{Snap: e.mgr.SnapshotNow(), Now: e.cfg.Now}
}
