package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"streamrel"
	"streamrel/internal/repl"
	"streamrel/internal/server"
	"streamrel/internal/shard"
	"streamrel/internal/sql"
	"streamrel/internal/wal"
)

// Probes call one layer's public functions on the workload's own generated
// batches and report cost per row. They run in a --trace 1 run, outside the
// timed passes, each on state of its own.

// probeBatches is how many batches a probe pushes through a layer.
const probeBatches = 48

// cost is what one probe measured, per unit of work.
type cost struct{ ns, allocs, bytes float64 }

// measure times fn and counts its allocations, dividing by units.
func measure(units int, fn func()) cost {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	u := float64(units)
	return cost{
		ns:     float64(d.Nanoseconds()) / u,
		allocs: float64(after.Mallocs-before.Mallocs) / u,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / u,
	}
}

// batchesOf stamps n consecutive batches of a stream, starting at row 0.
func batchesOf(s *streamSpec, n int) [][]streamrel.Row {
	out := make([][]streamrel.Row, n)
	for i := range out {
		out[i] = make([]streamrel.Row, batchRows)
		s.fill(out[i], int64(i*batchRows))
	}
	return out
}

// resultRows builds one window's worth of (key, count, sum) rows for a CQ:
// every group once, the shape a subscriber receives.
func resultRows(cq *cqSpec) []streamrel.Row {
	rows := make([]streamrel.Row, len(cq.ref.keys))
	for i, k := range cq.ref.keys {
		rows[i] = streamrel.Row{k, streamrel.Int(int64(i + 1)), streamrel.Int(int64(1000 * (i + 1)))}
	}
	return rows
}

// archiveDDL derives a raw-archive table and channel for a stream from the
// stream's own DDL.
func archiveDDL(s *streamSpec) (table, channel string) {
	cols := s.ddl[strings.Index(s.ddl, "("):]
	cols = strings.Replace(cols, " CQTIME USER", "", 1)
	return "CREATE TABLE probe_archive " + cols,
		"CREATE CHANNEL probe_ch FROM " + s.name + " INTO probe_archive APPEND"
}

// appendAll opens an in-memory engine, runs setup statements and
// subscriptions, and returns the cost per row of appending batches to it.
func appendAll(s *streamSpec, batches [][]streamrel.Row, stmts []string, cqs []*cqSpec) (cost, error) {
	eng, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		return cost{}, err
	}
	defer eng.Close()
	for _, stmt := range append([]string{s.ddl}, stmts...) {
		if _, err := eng.Exec(stmt); err != nil {
			return cost{}, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	for _, cq := range cqs {
		h, err := eng.Subscribe(cq.sql)
		if err != nil {
			return cost{}, err
		}
		defer h.Close()
	}
	var appendErr error
	c := measure(len(batches)*batchRows, func() {
		for _, b := range batches {
			if err := eng.Append(s.name, b...); err != nil {
				appendErr = err
				return
			}
		}
	})
	return c, appendErr
}

// runProbes fills m with every probe metric for the workload set up in r.
func runProbes(r *rig, tmp string, m map[string]metric) error {
	st := r.producers[0].spec
	batches := batchesOf(st, probeBatches)
	nRows := probeBatches * batchRows
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	// client and server: the JSON wire codec, both directions.
	var frames [][]byte
	c := measure(nRows, func() {
		for _, b := range batches {
			buf, err := json.Marshal(&server.Request{ID: 1, Op: "append", Stream: st.name, Rows: encodeRows(b)})
			if err != nil {
				panic(err) // a WireValue always marshals
			}
			frames = append(frames, buf)
		}
	})
	wireBytes := 0
	for _, f := range frames {
		wireBytes += len(f)
	}
	set("client.encode_ns_per_row", c.ns, "ns")
	set("client.encode_allocs_per_row", c.allocs, "count")
	set("client.wire_bytes_per_row", float64(wireBytes)/float64(nRows), "bytes")

	var decodeErr error
	c = measure(nRows, func() {
		for _, f := range frames {
			var req server.Request
			if err := json.Unmarshal(f, &req); err != nil {
				decodeErr = err
				return
			}
			for _, wr := range req.Rows {
				if _, err := server.DecodeRow(wr); err != nil {
					decodeErr = err
					return
				}
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("server decode probe: %w", decodeErr)
	}
	set("server.decode_ns_per_row", c.ns, "ns")
	set("server.decode_allocs_per_row", c.allocs, "count")

	cq := r.subs[0].cq
	result := resultRows(cq)
	const resultReps = 64
	var resultFrames [][]byte
	c = measure(resultReps*len(result), func() {
		for i := 0; i < resultReps; i++ {
			buf, err := json.Marshal(&server.Response{Batch: true, CQ: 1, Close: baseUs, Rows: encodeRows(result)})
			if err != nil {
				panic(err)
			}
			resultFrames = append(resultFrames, buf)
		}
	})
	set("server.encode_result_ns_per_row", c.ns, "ns")
	set("server.encode_result_bytes_per_row", float64(len(resultFrames[0]))/float64(len(result)), "bytes")
	c = measure(resultReps*len(result), func() {
		for _, f := range resultFrames {
			var resp server.Response
			if err := json.Unmarshal(f, &resp); err != nil {
				decodeErr = err
				return
			}
			for _, wr := range resp.Rows {
				if _, err := server.DecodeRow(wr); err != nil {
					decodeErr = err
					return
				}
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("client decode probe: %w", decodeErr)
	}
	set("client.decode_batch_ns_per_row", c.ns, "ns")

	// sql+plan: EXPLAIN of every CQ and every parameterless report.
	var stmts []string
	for _, s := range r.subs {
		stmts = append(stmts, s.cq.sql)
	}
	if r.reader != nil {
		for _, rep := range r.reader.reports {
			if rep.args == nil {
				stmts = append(stmts, rep.sql)
			}
		}
	}
	var planErr error
	c = measure(len(stmts), func() {
		for _, s := range stmts {
			if _, err := r.eng.Exec("EXPLAIN " + s); err != nil {
				planErr = err
				return
			}
		}
	})
	if planErr != nil {
		return fmt.Errorf("plan probe: %w", planErr)
	}
	set("plan.explain_ns_per_stmt", c.ns, "ns")

	// exec and storage: snapshot queries in process, no wire.
	var scanNs, scanned float64
	for _, q := range r.scanQueries {
		n, err := queryInts(r.eng, "SELECT count(*) FROM "+q.table)
		if err != nil {
			return err
		}
		const reps = 5
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := r.eng.Query(q.sql); err != nil {
				return fmt.Errorf("exec probe: %w", err)
			}
		}
		scanNs += float64(time.Since(t0).Nanoseconds())
		scanned += float64(reps * n[0])
	}
	if scanned > 0 {
		set("exec.query_ns_per_row_scanned", scanNs/scanned, "ns")
	} else {
		set("exec.query_ns_per_row_scanned", 0, "ns")
	}
	set("storage.lookup_ns", 0, "ns")
	if r.lookup != nil {
		const reps = 200
		var lookupErr error
		c = measure(reps, func() {
			for i := 0; i < reps; i++ {
				if _, err := r.eng.QueryArgs(r.lookup.sql, r.lookup.args(i)...); err != nil {
					lookupErr = err
					return
				}
			}
		})
		if lookupErr != nil {
			return fmt.Errorf("storage probe: %w", lookupErr)
		}
		set("storage.lookup_ns", c.ns, "ns")
	}

	// ivm: appending with the workload's incrementally maintained CQs minus
	// appending with none. The rows are stamped inside one ADVANCE, so no
	// window closes and the difference is delta maintenance alone.
	var ivmCQs []*cqSpec
	for _, s := range r.subs {
		if s.cq.stream == st && s.cq.class != "reexec" {
			ivmCQs = append(ivmCQs, s.cq)
		}
	}
	dense := *st
	dense.density = int64(nRows) * 2 // all probe rows inside half an event-second
	denseBatches := batchesOf(&dense, probeBatches)
	bare, err := appendAll(&dense, denseBatches, nil, nil)
	if err != nil {
		return fmt.Errorf("ivm probe: %w", err)
	}
	denseBatches = batchesOf(&dense, probeBatches)
	withCQs, err := appendAll(&dense, denseBatches, nil, ivmCQs)
	if err != nil {
		return fmt.Errorf("ivm probe: %w", err)
	}
	set("ivm.maintain_ns_per_row", withCQs.ns-bare.ns, "ns")

	// txn+storage: appending with a raw-archive channel minus without.
	table, channel := archiveDDL(st)
	plain, err := appendAll(st, batchesOf(st, probeBatches), nil, nil)
	if err != nil {
		return fmt.Errorf("archive probe: %w", err)
	}
	archived, err := appendAll(st, batchesOf(st, probeBatches), []string{table, channel}, nil)
	if err != nil {
		return fmt.Errorf("archive probe: %w", err)
	}
	set("txn.archive_ns_per_row", archived.ns-plain.ns, "ns")
	set("txn.archive_allocs_per_row", archived.allocs-plain.allocs, "count")

	// wal: encode and write the batches as insert records, no fsync.
	walDir, err := os.MkdirTemp(tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	walPath := filepath.Join(walDir, "wal.log")
	log, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		return err
	}
	recs := make([][]wal.Record, len(batches))
	for i, b := range batches {
		recs[i] = make([]wal.Record, len(b))
		for j, row := range b {
			recs[i][j] = wal.Record{Kind: wal.RecInsert, Table: "probe_archive", RowID: uint64(i*batchRows + j + 1), Row: row}
		}
	}
	var walErr error
	c = measure(nRows, func() {
		for _, rs := range recs {
			if err := log.Append(rs); err != nil {
				walErr = err
				return
			}
		}
	})
	if err := log.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if walErr != nil {
		return fmt.Errorf("wal probe: %w", walErr)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	set("wal.append_ns_per_row", c.ns, "ns")
	set("wal.bytes_per_row", float64(fi.Size())/float64(nRows), "bytes")

	// repl: publish into a hub nobody follows; frame codec both directions.
	hub := repl.NewPrimary(repl.Config{})
	c = measure(nRows, func() {
		for _, b := range batches {
			hub.PublishAppend(st.name, b, 0)
		}
	})
	set("repl.publish_ns_per_row", c.ns, "ns")
	var replFrames [][]byte
	c = measure(nRows, func() {
		for i, b := range batches {
			ev := &repl.Event{Kind: repl.KindAppend, LSN: uint64(i + 1), Wall: baseUs, Stream: st.name, Rows: b}
			replFrames = append(replFrames, repl.AppendFrame(nil, ev))
		}
	})
	set("repl.frame_encode_ns_per_row", c.ns, "ns")
	frameBytes := 0
	for _, f := range replFrames {
		frameBytes += len(f)
	}
	set("repl.frame_bytes_per_row", float64(frameBytes)/float64(nRows), "bytes")
	c = measure(nRows, func() {
		for _, f := range replFrames {
			if _, err := repl.DecodeEvent(f[8:]); err != nil { // past length and CRC
				decodeErr = err
				return
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("repl decode probe: %w", decodeErr)
	}
	set("repl.frame_decode_ns_per_row", c.ns, "ns")

	// replica: apply replicated appends into an engine in replica mode.
	reng, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		return err
	}
	defer reng.Close()
	if _, err := reng.Exec(st.ddl); err != nil {
		return err
	}
	reng.BeginReplica()
	var applyErr error
	fresh := batchesOf(st, probeBatches)
	c = measure(nRows, func() {
		for _, b := range fresh {
			if err := reng.ApplyReplicatedAppend(st.name, b, 0); err != nil {
				applyErr = err
				return
			}
		}
	})
	if applyErr != nil {
		return fmt.Errorf("replica probe: %w", applyErr)
	}
	set("replica.apply_ns_per_row", c.ns, "ns")

	// shard: split wire rows over two shards; merge two shards' results.
	var wireBatches [][][]server.WireValue
	for _, b := range batches {
		wireBatches = append(wireBatches, encodeRows(b))
	}
	two := shard.Map{Addrs: []string{"shard-0", "shard-1"}}
	keyCol := 0
	if st.tsCol == 0 {
		keyCol = 1
	}
	var splitErr error
	c = measure(nRows, func() {
		for _, wb := range wireBatches {
			if _, err := two.SplitWire(wb, keyCol); err != nil {
				splitErr = err
				return
			}
		}
	})
	if splitErr != nil {
		return fmt.Errorf("shard split probe: %w", splitErr)
	}
	set("shard.split_ns_per_row", c.ns, "ns")
	stmt, err := sql.Parse(cq.sql)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return fmt.Errorf("shard merge probe: %s is not a SELECT", cq.name)
	}
	mp, err := shard.PlanMerge(sel, "")
	if err != nil {
		return fmt.Errorf("shard merge probe: %w", err)
	}
	const mergeReps = 32
	c = measure(mergeReps*2*len(result), func() {
		for i := 0; i < mergeReps; i++ {
			mp.Merge([][]streamrel.Row{result, result})
		}
	})
	set("shard.merge_ns_per_row", c.ns, "ns")

	// gen: the harness's own stamping.
	rows := make([]streamrel.Row, batchRows)
	c = measure(nRows, func() {
		for i := 0; i < probeBatches; i++ {
			st.fill(rows, int64(i*batchRows))
		}
	})
	set("gen.ns_per_row", c.ns, "ns")
	return nil
}
