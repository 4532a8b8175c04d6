package streamrel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"weak"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
)

// cachedTree names the operators of the tree the cache keeps for q, in
// pre-order, or "" when it keeps none.
func cachedTree(e *Engine, q string) string {
	ent := e.plans.entries[q]
	if ent == nil {
		return ""
	}
	_, stats := exec.Instrument(ent.plan.Build(&plan.Input{}))
	var names []string
	for _, st := range stats {
		names = append(names, st.Name)
	}
	return strings.Join(names, " ")
}

func mustQueryArgs(t *testing.T, e *Engine, q string, args ...Value) []string {
	t.Helper()
	rows, err := e.QueryArgs(q, args...)
	if err != nil {
		t.Fatalf("%s %v: %v", q, args, err)
	}
	return rowStrings(rows)
}

// TestPlanCacheAcrossCreateIndex: CREATE INDEX moves the catalog, so a
// cached lookup is planned again — onto the index — and reads what it read.
func TestPlanCacheAcrossCreateIndex(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE kv (k bigint, v varchar)`)
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 100)), String(fmt.Sprint("v", i))}
	}
	if err := e.BulkInsert("kv", rows); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT count(*), min(v), max(v) FROM kv WHERE k = $1`
	before := mustQueryArgs(t, e, q, Int(7))
	if got := cachedTree(e, q); got != "Project HashAgg Filter SeqScan" {
		t.Fatalf("cached before the index: %s", got)
	}
	mustExec(t, e, `CREATE INDEX kv_k ON kv (k)`)
	if after := mustQueryArgs(t, e, q, Int(7)); strings.Join(after, "\n") != strings.Join(before, "\n") || after[0] != "50|v1007|v907" {
		t.Fatalf("across CREATE INDEX: %v, then %v", before, after)
	}
	if got := cachedTree(e, q); got != "Project HashAgg IndexScan" {
		t.Fatalf("cached after the index: %s", got)
	}
}

// TestPlanCacheAcrossDropAndCreate: a table dropped and created again with
// other rows is read as it now is — never through the dropped heap a cached
// tree scanned.
func TestPlanCacheAcrossDropAndCreate(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE kv (k bigint, v varchar)`)
	mustExec(t, e, `INSERT INTO kv VALUES (1, 'old'), (2, 'old2')`)
	const q = `SELECT v FROM kv WHERE k = $1`
	for range 2 {
		if got := mustQueryArgs(t, e, q, Int(1)); len(got) != 1 || got[0] != "old" {
			t.Fatalf("before: %v", got)
		}
	}
	mustExec(t, e, `DROP TABLE kv`)
	if _, err := e.QueryArgs(q, Int(1)); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("over the dropped table: %v", err)
	}
	mustExec(t, e, `CREATE TABLE kv (k bigint, v varchar)`)
	mustExec(t, e, `INSERT INTO kv VALUES (1, 'new')`)
	if got := mustQueryArgs(t, e, q, Int(1)); len(got) != 1 || got[0] != "new" {
		t.Fatalf("after CREATE TABLE again: %v", got)
	}
}

// TestPlanCachePinsNoDroppedHeap: once a table is dropped, the first
// statement to run drops every cached plan and idle tree, so none keeps the
// dropped heap reachable.
func TestPlanCachePinsNoDroppedHeap(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE big (k bigint, v bigint)`)
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 10)), Int(int64(i))}
	}
	if err := e.BulkInsert("big", rows); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		mustQueryArgs(t, e, `SELECT k, sum(v) FROM big WHERE v > $1 GROUP BY k`, Int(10))
	}
	heap := func() weak.Pointer[storage.Heap] {
		tbl, _ := e.cat.Table("big")
		return weak.Make(tbl.Heap)
	}()
	mustExec(t, e, `DROP TABLE big`)
	mustQuery(t, e, `SELECT 1`)
	runtime.GC()
	runtime.GC()
	if heap.Value() != nil {
		t.Fatal("the dropped table's heap is still reachable")
	}
}

// TestPlanCacheConcurrent: 8 goroutines run one cached text with mixed
// arguments — of two types, so its entry is planned again back and forth —
// and a second text, while a writer appends: every answer equals a fresh,
// uncached run at the same snapshot. make drain-policies runs it under -race,
// which also finds a compiled scalar that keeps state of its own (the CASE).
func TestPlanCacheConcurrent(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE ev (k bigint, s varchar, v bigint)`)
	mustExec(t, e, `CREATE INDEX ev_k ON ev (k)`)
	batch := func(n int) []Row {
		rows := make([]Row, 64)
		for i := range rows {
			rows[i] = Row{Int(int64((n + i) % 8)), String(fmt.Sprint("s", (n*i)%5)), Int(int64(n + i))}
		}
		return rows
	}
	if err := e.BulkInsert("ev", batch(0)); err != nil {
		t.Fatal(err)
	}
	texts := []struct {
		sql  string
		args func(i int) []Value
	}{
		{`SELECT count(*), sum(v), max(s) FROM ev WHERE k = $1`, func(i int) []Value {
			if i%3 == 0 {
				return []Value{Float(float64(i % 8))}
			}
			return []Value{Int(int64(i % 8))}
		}},
		{`SELECT s, count(*), sum(CASE k WHEN 3 THEN v ELSE 0 END) FROM ev WHERE v >= $1 AND s <> $2 GROUP BY s ORDER BY s`, func(i int) []Value {
			return []Value{Int(int64(i % 50)), String(fmt.Sprint("s", i%5))}
		}},
	}
	render := func(rows []Row, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(rows)
	}
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for n := 1; n <= 500; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.BulkInsert("ev", batch(n)); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for g := range 8 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := range 100 {
				q := texts[(g+i)%2]
				args := q.args(g*100 + i)
				e.mu.RLock()
				ctx := e.execCtx()
				got, err := e.query(ctx, q.sql, args)
				e.mu.RUnlock()
				var cached []Row
				if err == nil {
					cached = got.Data
				}
				stmt, err2 := sql.ParseArgs(q.sql, args)
				if err2 != nil {
					t.Error(err2)
					return
				}
				p, err2 := e.snapshotPlan(stmt)
				if err2 != nil {
					t.Error(err2)
					return
				}
				fresh, err2 := exec.Drain(&exec.Ctx{Snap: ctx.Snap}, p.Build(&plan.Input{}), 0)
				if a, b := render(cached, err), render(fresh, err2); a != b {
					t.Errorf("%s %v: cached\n%s\nfresh at the same snapshot\n%s", q.sql, args, a, b)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestCachedQueryAllocs: a cached statement costs its execution, not its
// planning. Over report_mixed's tables (20 000 rows, 512 sources, indexed by
// source; 512 hosts over 24 sites), its point lookup allocates at most 8 times
// a call, its 512-group top five at most 12 and its 24-site top five, a join
// to the hosts, at most 8; planned per call the first two read 166 and 199, and
// the join 15 cached before its tree kept its build side (7 after).
func TestCachedQueryAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE deny_archive (src_ip varchar, denials bigint, vol bigint)`)
	mustExec(t, e, `CREATE INDEX deny_archive_ip ON deny_archive (src_ip)`)
	mustExec(t, e, `CREATE TABLE hosts (src_ip varchar, site varchar)`)
	mustExec(t, e, `CREATE INDEX hosts_ip ON hosts (src_ip)`)
	ip := func(i int) Value { return String(fmt.Sprintf("10.0.%d.%d", i%512/256, i%256)) }
	rows, hosts := make([]Row, 20000), make([]Row, 512)
	for i := range rows {
		rows[i] = Row{ip(i), Int(int64(1 + i%20)), Int(int64(40 + i))}
	}
	for i := range hosts {
		hosts[i] = Row{ip(i), String(fmt.Sprintf("site-%02d", i%24))}
	}
	if err := e.BulkInsert("deny_archive", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("hosts", hosts); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		args []Value
		max  float64
	}{
		{`SELECT count(*), sum(denials) FROM deny_archive WHERE src_ip = $1`, []Value{String("10.0.1.7")}, 8},
		{`SELECT src_ip, sum(denials) AS d FROM deny_archive GROUP BY src_ip ORDER BY d DESC, src_ip LIMIT 5`, nil, 12},
		{`SELECT h.site, sum(a.denials) AS d FROM deny_archive a, hosts h WHERE a.src_ip = h.src_ip GROUP BY h.site ORDER BY d DESC, h.site LIMIT 5`, nil, 8},
	} {
		run := func() {
			if _, err := e.QueryArgs(c.sql, c.args...); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.1f allocations a call", c.sql, allocs)
		if allocs > c.max && !racing {
			t.Errorf("%s: %.1f allocations a cached call, want at most %.0f", c.sql, allocs, c.max)
		}
	}
}

// TestExplainGenericPlan: EXPLAIN of a SELECT with parameters prints the
// tree the plan cache keeps for it, $1 in its index range, and marks an
// aggregate that no $n reads below as maintained; a statement with no
// parameters is explained as it always was.
func TestExplainGenericPlan(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE kv (k bigint, v varchar)`)
	mustExec(t, e, `CREATE INDEX kv_k ON kv (k)`)
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT count(*), max(v) FROM kv WHERE k = $1 AND v <> $2`, []string{
			"Snapshot Query (SQ): runs once over an MVCC snapshot",
			"  generic plan ($n read at Open):",
			"    Project",
			"      HashAgg",
			"        Filter",
			"          IndexScan kv_k [$1, $1]",
			"  output: (count BIGINT, max VARCHAR)",
		}},
		{`SELECT k, count(*) FROM kv GROUP BY k HAVING count(*) > $1`, []string{
			"Snapshot Query (SQ): runs once over an MVCC snapshot",
			"  generic plan ($n read at Open):",
			"    Project",
			"      Filter",
			"        HashAgg (maintained)",
			"          SeqScan",
			"  output: (k BIGINT, count BIGINT)",
		}},
		{`SELECT k, count(*) FROM kv WHERE v <> $1 GROUP BY k`, []string{
			"Snapshot Query (SQ): runs once over an MVCC snapshot",
			"  generic plan ($n read at Open):",
			"    Project",
			"      HashAgg",
			"        Filter",
			"          SeqScan",
			"  output: (k BIGINT, count BIGINT)",
		}},
		{`SELECT count(*), max(v) FROM kv WHERE k = 1 AND v <> 'a'`, []string{
			"Snapshot Query (SQ): runs once over an MVCC snapshot",
			"  output: (count BIGINT, max VARCHAR)",
		}},
	} {
		got := rowStrings(mustExec(t, e, "EXPLAIN "+c.sql).Rows)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("EXPLAIN %s:\ngot:\n%s\nwant:\n%s", c.sql, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestCachedTreePinsNoArgs: a cached statement's tree goes back to the idle
// list after each call, and keeps nothing of that call's arguments — every
// operator that copied them into its expression context at Open lets go of
// it at Close. Each query puts one more kind of operator under the $n it
// reads.
func TestCachedTreePinsNoArgs(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE big (k bigint, v bigint)`)
	mustExec(t, e, `CREATE TABLE small (k bigint, name varchar)`)
	mustExec(t, e, `CREATE INDEX big_k ON big (k)`)
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 10)), Int(int64(i))}
	}
	if err := e.BulkInsert("big", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	for _, c := range []struct{ sql, tree string }{
		{`SELECT k, sum(v) + $1 AS s FROM big WHERE v > $1 GROUP BY k ORDER BY s DESC`, "Sort Project HashAgg Filter SeqScan"},
		{`SELECT v FROM big WHERE k = $1`, "Project IndexScan"},
		{`SELECT count(*) FROM big JOIN small ON big.k = small.k WHERE big.v < $1`, "Project HashAgg Filter HashJoin SeqScan SeqScan"},
		{`SELECT a.name, b.name FROM small a JOIN small b ON a.k < b.k + $1`, "Project NestedLoopJoin SeqScan SeqScan"},
	} {
		mustQueryArgs(t, e, c.sql, Int(100))
		if got := cachedTree(e, c.sql); got != c.tree {
			t.Errorf("%s: cached tree %s, want %s", c.sql, got, c.tree)
		}
		args := func() weak.Pointer[Value] {
			args := []Value{Int(200)}
			mustQueryArgs(t, e, c.sql, args...)
			return weak.Make(&args[0])
		}()
		runtime.GC()
		runtime.GC()
		if args.Value() != nil {
			t.Errorf("%s: the idle tree keeps the last call's arguments reachable", c.sql)
		}
	}
}

// TestCachedTreeKeepsBuildSide: a cached snapshot tree keeps its join's build
// side between calls, as an enrichment post stage does between closes —
// unless the ON clause reads a $n, whose value is the call's.
func TestCachedTreeKeepsBuildSide(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE big (k bigint, v bigint)`)
	mustExec(t, e, `CREATE TABLE small (k bigint, name varchar)`)
	mustExec(t, e, `INSERT INTO big VALUES (1, 10), (2, 20), (3, 30)`)
	mustExec(t, e, `INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	for _, c := range []struct {
		sql  string
		kept bool
	}{
		{`SELECT count(*) FROM big JOIN small ON big.k = small.k WHERE big.v < $1`, true},
		{`SELECT count(*) FROM big JOIN small ON big.k = small.k - $1 + 1`, false},
		{`SELECT big.v, small.name FROM big JOIN small ON big.k = small.k AND small.k <> $1`, false},
	} {
		for range 2 {
			mustQueryArgs(t, e, c.sql, Int(1))
		}
		ent := e.plans.entries[c.sql]
		if ent == nil {
			t.Fatalf("%s: not cached", c.sql)
		}
		tree := <-ent.idle
		ent.idle <- tree
		for op := tree; ; {
			if j, ok := op.(*exec.HashJoin); ok {
				var rows int
				if j.Keep != nil {
					_, kept := j.Keep.Kept()
					rows = len(kept)
				}
				if (rows == 3) != c.kept {
					t.Errorf("%s: keeps %d build rows (JoinBuild %v), want the table kept %v", c.sql, rows, j.Keep != nil, c.kept)
				}
				break
			}
			switch o := op.(type) {
			case *exec.Project:
				op = o.Child
			case *exec.HashAgg:
				op = o.Child
			case *exec.Filter:
				op = o.Child
			default:
				t.Fatalf("%s: no join in the cached tree: %T", c.sql, op)
			}
		}
	}
}
