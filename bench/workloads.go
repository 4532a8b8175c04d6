package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"streamrel"
	"streamrel/replica"
)

// workloadDef is one of the four canonical workloads. Rates and row counts
// are frozen constants: they were set once from a sizing run on the
// reference box (see README.md) and are never computed at run time, so two
// commits always receive the same offered load.
type workloadDef struct {
	name string
	why  string
	// satRate sizes the closed-loop sat phase: it runs satRate rows for
	// each of its seconds, however long that takes. 0 means no sat phase:
	// report_mixed's writer is paced throughout, so that table growth is
	// the same on every commit.
	satRate float64
	// pacedRate is the open-loop rate in rows/s, summed over producers.
	pacedRate float64
	// queryRate is the reader's open-loop rate in reports/s (report_mixed).
	queryRate float64
	// passRows is each producer's row count in the row-bounded passes of a
	// --trace 1 run; passQueries the reader's report count in them.
	passRows    int64
	passQueries int
	// reexecWindowRows is the row count inside a re-executing CQ's window.
	reexecWindowRows int64
	// pathProbes lists the probe metrics that time work done on the
	// producer's path in this workload (see buildLedger).
	pathProbes []string
	build      func(seed int64, opt rigOptions) (*rig, error)
}

var workloads = []*workloadDef{
	{
		name: "wire_durable",
		why: "2 client connections over loopback JSON into a SyncWAL engine with raw-archive channels and a replica: " +
			"wire codec, commit, WAL fsync and replication do the work, window state almost none",
		satRate: 40000, pacedRate: 16000, passRows: 500 * batchRows,
		pathProbes: []string{"client.encode_ns_per_row", "server.decode_ns_per_row", "ivm.maintain_ns_per_row",
			"txn.archive_ns_per_row", "repl.publish_ns_per_row"},
		build: buildWireDurable,
	},
	{
		name: "mem_fanout",
		why: "in-process, ParallelCQ 4, one stream into 24 CQs (8 re-executing, 8 plan-shared, 8 incremental of unequal VISIBLE): " +
			"fan-out, mailboxes, scheduler and exec re-execution do the work, wire/WAL/repl none",
		satRate: 20000, pacedRate: 10000, passRows: 500 * batchRows,
		reexecWindowRows: 10 * 1000,
		build:            buildMemFanout,
	},
	{
		name: "wide_window",
		why: "in-process synchronous engine, 10000 skewed groups, three incremental CQs at VISIBLE 10/30/60 s: " +
			"per-row delta maintenance, slice expiry and O(groups) fires dominate, nothing else runs",
		satRate: 60000, pacedRate: 25000, passRows: 1500 * batchRows,
		pathProbes: []string{"ivm.maintain_ns_per_row"},
		build:      buildWideWindow,
	},
	{
		name: "report_mixed",
		why: "paced security-event writer over the wire to a derived stream and an indexed Active Table while a second " +
			"connection runs three reports at a fixed rate: reads beside commits, storage, result encoding",
		pacedRate: 12000, queryRate: 12, passRows: 800 * batchRows, passQueries: 240,
		pathProbes: []string{"client.encode_ns_per_row", "server.decode_ns_per_row"},
		build:      buildReportMixed,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const second = int64(time.Second / time.Microsecond)

// dashboardSQL is the (key, count, sum) aggregate every subscriber runs.
func dashboardSQL(key, sum, from, where string, visibleSec, advanceSec int) string {
	q := fmt.Sprintf("SELECT %s, count(*) AS n, sum(%s) AS total FROM %s <VISIBLE '%d seconds' ADVANCE '%d seconds'>",
		key, sum, from, visibleSec, advanceSec)
	if where != "" {
		q += " WHERE " + where
	}
	return q + " GROUP BY " + key
}

func colKey(col int) func(streamrel.Row) (streamrel.Value, bool) {
	return func(r streamrel.Row) (streamrel.Value, bool) { return r[col], true }
}

func (r *rig) execAll(stmts ...string) error {
	for _, s := range stmts {
		if _, err := r.eng.Exec(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------- wire_durable

func buildWireDurable(seed int64, opt rigOptions) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.dir, err = os.MkdirTemp(opt.tmp, "wire_durable-"); err != nil {
		return nil, err
	}
	r.eng, err = streamrel.Open(opt.engineConfig(streamrel.Config{
		Dir: filepath.Join(r.dir, "primary"), SyncWAL: true, Replicate: true}))
	if err != nil {
		return nil, err
	}
	addr, err := r.serve()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var cqs []*cqSpec
	for _, suffix := range []string{"a", "b"} {
		st := hitStream("hits_"+suffix, rng, 100, 4096, 500)
		cl, err := r.dial(addr)
		if err != nil {
			return nil, err
		}
		for _, stmt := range []string{
			st.ddl,
			"CREATE TABLE archive_" + suffix + " (url varchar, atime timestamp, client_ip varchar, bytes bigint)",
			"CREATE CHANNEL arch_" + suffix + " FROM " + st.name + " INTO archive_" + suffix + " APPEND",
		} {
			if _, err := cl.Exec(stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", stmt, err)
			}
		}
		cq := &cqSpec{
			name: "dash_" + suffix, class: "incremental", stream: st,
			sql:     dashboardSQL("url", "bytes", st.name, "", 60, 1),
			visible: 60 * second, advance: second,
			ref: buildRefInput(st.pool, colKey(0), 3),
		}
		if err := r.subscribeWire(cl, cq); err != nil {
			return nil, err
		}
		cqs = append(cqs, cq)
		r.addProducer(st, wireSend(cl, st.name))
	}
	for _, cq := range cqs {
		if err := r.recordExplain(cq.name, cq.class, cq.sql); err != nil {
			return nil, err
		}
	}

	r.replicaEng, err = streamrel.Open(opt.engineConfig(streamrel.Config{Replicate: true}))
	if err != nil {
		return nil, err
	}
	r.rep, err = replica.New(replica.Options{Addr: addr, Engine: r.replicaEng})
	if err != nil {
		return nil, err
	}
	r.rep.Start()
	if err := r.rep.WaitCaughtUp(30 * time.Second); err != nil {
		return nil, err
	}
	r.scanQueries = []scanQuery{{sql: "SELECT count(*), sum(bytes) FROM archive_a", table: "archive_a"}}

	r.verify = func() (attempted, failed int64, notes []string) {
		// Every acknowledged row must be in the raw archive, on the primary
		// and — once the replica has drained — on the replica.
		if err := r.rep.WaitFor(r.eng.Repl().LSN(), 30*time.Second); err != nil {
			notes = append(notes, err.Error())
		}
		for i, p := range r.producers {
			table := "archive_" + string(rune('a'+i))
			acked := (p.attempted - p.failed) * batchRows
			for side, eng := range map[string]*streamrel.Engine{"primary": r.eng, "replica": r.replicaEng} {
				attempted++
				got, err := queryInts(eng, "SELECT count(*) FROM "+table)
				if err != nil || got[0] != acked {
					failed++
					notes = append(notes, fmt.Sprintf("%s %s: count(*) = %v (err %v), want %d acked rows",
						side, table, got, err, acked))
				}
			}
		}
		return attempted, failed, notes
	}
	return r, nil
}

// ---------------------------------------------------------------- mem_fanout

// urlCategory assigns a url (by its trailing number) to one of 8 categories.
func urlCategory(url string) string {
	n := 0
	fmt.Sscanf(url, "/page/%d", &n)
	return fmt.Sprintf("cat-%d", n%8)
}

func buildMemFanout(seed int64, opt rigOptions) (_ *rig, err error) {
	r := &rig{parallel: true}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.eng, err = streamrel.Open(opt.engineConfig(streamrel.Config{ParallelCQ: 4}))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	st := hitStream("hits", rng, 100, 1000, 1000)
	if err := r.execAll(st.ddl,
		"CREATE TABLE urls (url varchar, category varchar)",
		"CREATE INDEX urls_url ON urls (url)"); err != nil {
		return nil, err
	}
	dim := make([]streamrel.Row, 100)
	for i := range dim {
		url := fmt.Sprintf("/page/%04d", i)
		dim[i] = streamrel.Row{streamrel.String(url), streamrel.String(urlCategory(url))}
	}
	if err := r.eng.BulkInsert("urls", dim); err != nil {
		return nil, err
	}

	over := func(col int, min int64, key func(streamrel.Row) streamrel.Value) func(streamrel.Row) (streamrel.Value, bool) {
		return func(row streamrel.Row) (streamrel.Value, bool) { return key(row), row[col].Int() > min }
	}
	byURL := func(row streamrel.Row) streamrel.Value { return row[0] }
	byCategory := func(row streamrel.Row) streamrel.Value { return streamrel.String(urlCategory(row[0].Str())) }

	var cqs []*cqSpec
	// 8 that re-execute by shape; distinct constants keep their plans apart.
	for i := 0; i < 4; i++ {
		min := int64(300 + 100*i)
		cqs = append(cqs, &cqSpec{
			name: fmt.Sprintf("join_%d", i), class: "reexec", stream: st,
			sql: fmt.Sprintf("SELECT u.category, count(*) AS n, sum(h.bytes) AS total "+
				"FROM hits h <VISIBLE '10 seconds' ADVANCE '1 second'>, urls u "+
				"WHERE h.url = u.url AND h.bytes > %d GROUP BY u.category", min),
			visible: 10 * second, advance: second,
			ref: buildRefInput(st.pool, over(3, min, byCategory), 3),
		})
	}
	for i := 0; i < 4; i++ {
		min := int64(250 + 100*i)
		cqs = append(cqs, &cqSpec{
			name: fmt.Sprintf("odd_advance_%d", i), class: "reexec", stream: st,
			sql:     dashboardSQL("url", "bytes", "hits", fmt.Sprintf("bytes > %d", min), 10, 4),
			visible: 10 * second, advance: 4 * second,
			ref: buildRefInput(st.pool, over(3, min, byURL), 3),
		})
	}
	// 8 identical dashboards: one plan-shared host.
	urlRef := buildRefInput(st.pool, colKey(0), 3)
	for i := 0; i < 8; i++ {
		cqs = append(cqs, &cqSpec{
			name: fmt.Sprintf("dash_%d", i), class: "plan-shared", stream: st,
			sql:     dashboardSQL("url", "bytes", "hits", "", 10, 1),
			visible: 10 * second, advance: second, ref: urlRef,
		})
	}
	// 8 with one fingerprint but VISIBLE 10 … 80 s: each its own state today.
	ipRef := buildRefInput(st.pool, colKey(2), 3)
	for i := 1; i <= 8; i++ {
		cqs = append(cqs, &cqSpec{
			name: fmt.Sprintf("visible_%ds", 10*i), class: "incremental", stream: st,
			sql:     dashboardSQL("client_ip", "bytes", "hits", "", 10*i, 1),
			visible: int64(10*i) * second, advance: second, ref: ipRef,
		})
	}
	for _, cq := range cqs {
		if err := r.subscribeLocal(cq); err != nil {
			return nil, err
		}
	}
	for _, cq := range cqs {
		if err := r.recordExplain(cq.name, cq.class, cq.sql); err != nil {
			return nil, err
		}
	}
	r.addProducer(st, localSend(r.eng, st.name))
	r.scanQueries = []scanQuery{{sql: "SELECT category, count(*) FROM urls GROUP BY category", table: "urls"}}
	return r, nil
}

// ---------------------------------------------------------------- wide_window

func buildWideWindow(seed int64, opt rigOptions) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.eng, err = streamrel.Open(opt.engineConfig(streamrel.Config{}))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	st := keyStream("s", rng, 10000, 3000)
	if err := r.execAll(st.ddl); err != nil {
		return nil, err
	}
	ref := buildRefInput(st.pool, colKey(0), 2)
	for _, v := range []int{10, 30, 60} {
		cq := &cqSpec{
			name: fmt.Sprintf("visible_%ds", v), class: "incremental", stream: st,
			sql:     dashboardSQL("k", "v", "s", "", v, 1),
			visible: int64(v) * second, advance: second, ref: ref,
		}
		if err := r.subscribeLocal(cq); err != nil {
			return nil, err
		}
		if err := r.recordExplain(cq.name, cq.class, cq.sql); err != nil {
			return nil, err
		}
	}
	r.addProducer(st, localSend(r.eng, st.name))
	return r, nil
}

// ---------------------------------------------------------------- report_mixed

const (
	reportIPs     = 512
	preloadRows   = 20000 // Active Table size at the start of every run
	preloadChunk  = 4000
	reportTopN    = 5
	lookupHotKeys = 16
)

var reportQueries = []report{
	{name: "top_sources", sql: fmt.Sprintf(
		"SELECT src_ip, sum(denials) AS d FROM deny_archive GROUP BY src_ip ORDER BY d DESC, src_ip LIMIT %d", reportTopN)},
	{name: "top_sites", sql: fmt.Sprintf(
		"SELECT h.site, sum(a.denials) AS d FROM deny_archive a, hosts h WHERE a.src_ip = h.src_ip "+
			"GROUP BY h.site ORDER BY d DESC, h.site LIMIT %d", reportTopN)},
	{name: "source_lookup", sql: "SELECT count(*), sum(denials) FROM deny_archive WHERE src_ip = $1",
		args: func(cycle int) []streamrel.Value {
			return []streamrel.Value{streamrel.String(srcIP(cycle % lookupHotKeys))}
		}},
}

func buildReportMixed(seed int64, opt rigOptions) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.dir, err = os.MkdirTemp(opt.tmp, "report_mixed-"); err != nil {
		return nil, err
	}
	r.eng, err = streamrel.Open(opt.engineConfig(streamrel.Config{Dir: filepath.Join(r.dir, "data")}))
	if err != nil {
		return nil, err
	}
	addr, err := r.serve()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// 15 rows per event-second: a one-minute window closes every 900 rows.
	st := secStream("sec_events", rng, reportIPs, 15)
	writer, err := r.dial(addr)
	if err != nil {
		return nil, err
	}
	const denyFrom = "sec_events <VISIBLE '1 minute' ADVANCE '1 minute'> WHERE action = 'deny' GROUP BY src_ip"
	for _, stmt := range []string{
		st.ddl,
		"CREATE STREAM deny_now AS SELECT src_ip, count(*) AS denials, sum(bytes) AS vol, cq_close(*) AS stime FROM " + denyFrom,
		"CREATE TABLE deny_archive (src_ip varchar, denials bigint, vol bigint, stime timestamp)",
		"CREATE INDEX deny_archive_ip ON deny_archive (src_ip)",
		"CREATE CHANNEL deny_ch FROM deny_now INTO deny_archive APPEND",
		"CREATE TABLE hosts (src_ip varchar, site varchar)",
		"CREATE INDEX hosts_ip ON hosts (src_ip)",
	} {
		if _, err := writer.Exec(stmt); err != nil {
			return nil, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	hosts := make([]streamrel.Row, reportIPs)
	for i := range hosts {
		hosts[i] = streamrel.Row{streamrel.String(srcIP(i)), streamrel.String(fmt.Sprintf("site-%02d", i%24))}
	}
	if err := r.eng.BulkInsert("hosts", hosts); err != nil {
		return nil, err
	}
	// History: the Active Table starts every run at the same size, filled
	// with windows that closed before event time zero.
	var preCount, preDenials, preVol int64
	z := rand.NewZipf(rng, 1.1, 1, reportIPs-1)
	for done := 0; done < preloadRows; done += preloadChunk {
		chunk := make([]streamrel.Row, preloadChunk)
		for i := range chunk {
			denials, vol := int64(1+rng.Intn(20)), int64(40+rng.Intn(20000))
			stime := baseUs - int64(1+(done+i)/200)*60*second
			chunk[i] = streamrel.Row{streamrel.String(srcIP(int(z.Uint64()))), streamrel.Int(denials),
				streamrel.Int(vol), streamrel.Timestamp(time.UnixMicro(stime).UTC())}
			preCount++
			preDenials += denials
			preVol += vol
		}
		if err := r.eng.BulkInsert("deny_archive", chunk); err != nil {
			return nil, err
		}
	}

	cq := &cqSpec{
		name: "deny_dash", class: "incremental", stream: st,
		sql:     "SELECT src_ip, count(*) AS n, sum(bytes) AS total FROM " + denyFrom,
		visible: 60 * second, advance: 60 * second,
		ref: buildRefInput(st.pool, func(row streamrel.Row) (streamrel.Value, bool) {
			return row[1], row[3].Str() == "deny"
		}, 4),
	}
	if err := r.subscribeWire(writer, cq); err != nil {
		return nil, err
	}
	if err := r.recordExplain(cq.name, cq.class, cq.sql); err != nil {
		return nil, err
	}
	r.addProducer(st, wireSend(writer, st.name))

	readerConn, err := r.dial(addr)
	if err != nil {
		return nil, err
	}
	r.reader = &reader{cl: readerConn, reports: reportQueries}
	r.scanQueries = []scanQuery{{sql: reportQueries[0].sql, table: "deny_archive"}}
	r.lookup = &reportQueries[2]
	for _, rep := range reportQueries {
		if rep.args != nil {
			continue // EXPLAIN takes no parameters
		}
		if err := r.recordExplain(rep.name, "", rep.sql); err != nil {
			return nil, err
		}
	}

	r.verify = func() (attempted, failed int64, notes []string) {
		// The Active Table must hold the history plus exactly the windows the
		// reference says closed, and each report must read the same over the
		// wire as in process.
		p := r.producers[0]
		want := expectedWindows(st, cq.ref, cq.visible, cq.advance, p.g)
		wantRows, wantDenials, wantVol := preCount, preDenials, preVol
		for _, w := range want {
			wantRows += int64(w.rows)
			wantDenials += w.count
			wantVol += w.sum
		}
		attempted++
		got, err := queryInts(r.eng, "SELECT count(*), sum(denials), sum(vol) FROM deny_archive")
		if err != nil || got[0] != wantRows || got[1] != wantDenials || got[2] != wantVol {
			failed++
			notes = append(notes, fmt.Sprintf("deny_archive totals = %v (err %v), want %d rows %d denials %d vol",
				got, err, wantRows, wantDenials, wantVol))
		}
		for _, rep := range reportQueries {
			attempted++
			var args []streamrel.Value
			if rep.args != nil {
				args = rep.args(0)
			}
			wire, werr := readerConn.Query(rep.sql, args...)
			local, lerr := r.eng.QueryArgs(rep.sql, args...)
			if werr != nil || lerr != nil || len(local.Data) == 0 || !sameRows(wire.Data, local.Data) {
				failed++
				notes = append(notes, fmt.Sprintf("report %s differs between wire and in-process (errs %v, %v)",
					rep.name, werr, lerr))
			}
		}
		return attempted, failed, notes
	}
	return r, nil
}

// queryInts runs a one-row query of integer columns in process.
func queryInts(eng *streamrel.Engine, sql string) ([]int64, error) {
	rows, err := eng.Query(sql)
	if err != nil {
		return nil, err
	}
	if len(rows.Data) != 1 {
		return nil, fmt.Errorf("%s: %d rows, want 1", sql, len(rows.Data))
	}
	out := make([]int64, len(rows.Data[0]))
	for i, d := range rows.Data[0] {
		out[i] = d.Int()
	}
	return out, nil
}

func sameRows(a, b []streamrel.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
