package shard

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamrel/internal/server"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

func TestHashDatumStable(t *testing.T) {
	m := Map{Addrs: []string{"a", "b", "c"}}
	for _, d := range []types.Datum{
		types.NewInt(42), types.NewString("client-7"), types.NewFloat(3.5),
		types.NewBool(true), types.NewTimestampMicros(1e6), types.Null,
	} {
		s1, s2 := m.ShardOf(d), m.ShardOf(d)
		if s1 != s2 {
			t.Fatalf("ShardOf(%v) unstable: %d vs %d", d, s1, s2)
		}
		if s1 < 0 || s1 >= 3 {
			t.Fatalf("ShardOf(%v) = %d out of range", d, s1)
		}
	}
	// Distinct int and string values must not all land on one shard.
	hit := map[int]bool{}
	for i := 0; i < 64; i++ {
		hit[m.ShardOf(types.NewInt(int64(i)))] = true
	}
	if len(hit) != 3 {
		t.Fatalf("64 int keys hit only %d of 3 shards", len(hit))
	}
}

func TestSplitWire(t *testing.T) {
	m := Map{Addrs: []string{"a", "b"}}
	var rows [][]server.WireValue
	for i := int64(0); i < 20; i++ {
		rows = append(rows, server.EncodeRow(types.Row{types.NewInt(i % 5), types.NewInt(i)}))
	}
	parts, err := m.SplitWire(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, part := range parts {
		total += len(part)
		for _, r := range part {
			if d := r[0]; m.ShardOf(d) != s {
				t.Fatalf("key %v on shard %d, want %d", d, s, m.ShardOf(d))
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("split lost rows: %d of %d", total, len(rows))
	}
	if _, err := m.SplitWire(rows, 9); err == nil {
		t.Fatal("out-of-range key column should fail")
	}
}

func planFor(t *testing.T, q, partCol string) (*MergePlan, error) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return PlanMerge(stmt.(*sql.Select), partCol)
}

func TestPlanMergeRules(t *testing.T) {
	p, err := planFor(t, `SELECT count(*), sum(v), min(v), max(v), cq_close(*) FROM s <ADVANCE '1 minute'>`, "k")
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT sum("#pre"."#a0") AS count, sum("#pre"."#a1") AS sum, min("#pre"."#a2") AS min, max("#pre"."#a3") AS max, "#pre"."#k0" AS cq_close FROM "#pre" AS "#pre" GROUP BY "#pre"."#k0"`
	if got := finalSQL(p); got != want {
		t.Fatalf("final block = %s, want %s", got, want)
	}

	p, err = planFor(t, `SELECT k, v FROM s`, "k")
	if err != nil || p.split != nil {
		t.Fatalf("plain projection: %+v, %v", p, err)
	}

	// GROUP BY the partition key confines groups to one shard: any
	// aggregate concatenates, including AVG.
	p, err = planFor(t, `SELECT k, avg(v) FROM s GROUP BY k`, "k")
	if err != nil || p.split != nil {
		t.Fatalf("group-by-partition-key: %+v, %v", p, err)
	}

	p, err = planFor(t, `SELECT u, count(*) FROM s GROUP BY u`, "k")
	if want := `SELECT "#pre"."#k0" AS u, sum("#pre"."#a0") AS count FROM "#pre" AS "#pre" GROUP BY "#pre"."#k0"`; err != nil || finalSQL(p) != want {
		t.Fatalf("group-by-other: %s, %v; want %s", finalSQL(p), err, want)
	}

	// avg over a non-partition-key grouping rewrites to a SUM+COUNT
	// scatter recombined at the router.
	p, err = planFor(t, `SELECT u, avg(v) AS m, count(*) FROM s <ADVANCE '1 minute'> GROUP BY u`, "k")
	if err != nil {
		t.Fatal(err)
	}
	wantFinal := `SELECT "#pre"."#k0" AS u, (CAST(sum("#pre"."#a0") AS DOUBLE) / sum("#pre"."#a1")) AS m, sum("#pre"."#a2") AS count FROM "#pre" AS "#pre" GROUP BY "#pre"."#k0"`
	if got := finalSQL(p); got != wantFinal {
		t.Fatalf("avg rewrite final block = %s, want %s", got, wantFinal)
	}
	wantSQL := `SELECT u, sum(v), count(v), count(*) FROM s <VISIBLE '1 minute' ADVANCE '1 minute'> GROUP BY u`
	if p.ScatterSQL != wantSQL {
		t.Fatalf("scatter sql = %q, want %q", p.ScatterSQL, wantSQL)
	}
	if _, err := sql.Parse(p.ScatterSQL); err != nil {
		t.Fatalf("scatter sql does not re-parse: %v", err)
	}

	// The scatter text is the printer's: what needs quotes or a keyword to
	// parse again has them.
	p, err = planFor(t, `SELECT region, avg("my col"), avg("MixedCase") x FROM s <ADVANCE '1 minute'>
		WHERE at > now() - INTERVAL '5 minutes' AND at < TIMESTAMP '2020-01-01' GROUP BY region`, "k")
	if err != nil {
		t.Fatal(err)
	}
	wantSQL = `SELECT region, sum("my col"), count("my col"), sum("MixedCase"), count("MixedCase") ` +
		`FROM s <VISIBLE '1 minute' ADVANCE '1 minute'> ` +
		`WHERE ((at > (now() - INTERVAL '5 minutes')) AND (at < TIMESTAMP '2020-01-01 00:00:00.000000')) GROUP BY region`
	if p.ScatterSQL != wantSQL {
		t.Fatalf("scatter sql = %q, want %q", p.ScatterSQL, wantSQL)
	}
	if again, err := sql.Parse(p.ScatterSQL); err != nil || sql.Format(again) != wantSQL {
		t.Fatalf("scatter sql parses to %v, %v", again, err)
	}

	for _, bad := range []string{
		`SELECT avg(DISTINCT v) FROM s`,
		`SELECT stddev(v) FROM s`,
		`SELECT count(DISTINCT v) FROM s`,
		`SELECT DISTINCT k FROM s`,
		`SELECT k FROM s ORDER BY k`,
		`SELECT k FROM s LIMIT 5`,
		`SELECT k FROM s UNION SELECT k FROM t`,
		// The final block cannot compute these, which PlanMerge knows before
		// any shard runs the partial block.
		`SELECT v, count(*) FROM s GROUP BY u`,
		`SELECT u, count(*) FROM s GROUP BY 1`,
		// One node refuses a GROUP BY position naming an aggregate.
		`SELECT count(*) FROM s GROUP BY 1`,
	} {
		if _, err := planFor(t, bad, "k"); err == nil {
			t.Errorf("PlanMerge(%q) should fail", bad)
		}
	}

	// HAVING and an expression over aggregates run in the final block, so
	// they merge as one node answers though u = 1 spans both shards.
	cols := types.Schema{{Name: "k", Type: types.TypeString}, {Name: "u", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}}
	parts := [][]types.Row{rowsOf([]any{"a", 1, 1}, []any{"b", 2, 1}), rowsOf([]any{"c", 1, 5}, []any{"d", 3, 2})}
	for _, q := range []string{
		`SELECT u, count(*) FROM s GROUP BY u HAVING count(*) > 1`,
		`SELECT sum(v) + 1 FROM s`,
	} {
		if merged, whole := splitMerge(t, q, "k", cols, parts); len(whole) != 1 || !sameRows(merged, whole) {
			t.Errorf("%s: merged %v, one node %v", q, merged, whole)
		}
	}
}

func rowsOf(vals ...[]any) []types.Row {
	out := make([]types.Row, len(vals))
	for i, rv := range vals {
		row := make(types.Row, len(rv))
		for j, v := range rv {
			switch x := v.(type) {
			case int:
				row[j] = types.NewInt(int64(x))
			case string:
				row[j] = types.NewString(x)
			case nil:
				row[j] = types.Null
			case float64:
				row[j] = types.NewFloat(x)
			}
		}
		out[i] = row
	}
	return out
}

// sameRows compares by type and value: reflect.DeepEqual would compare the
// addresses of two datums' string bytes.
func sameRows(a, b []types.Row) bool { return slices.EqualFunc(a, b, types.Row.Equal) }

// finalSQL prints the block that finishes the shards' partial rows; "" when
// they concatenate.
func finalSQL(p *MergePlan) string {
	if p == nil || p.split == nil {
		return ""
	}
	return sql.Format(p.split.Final(p.sel, nil, nil))
}

// mergeOf sends parts through the merge PlanMerge compiles for q.
func mergeOf(t *testing.T, q string, parts ...[]types.Row) []types.Row {
	t.Helper()
	p, err := planFor(t, q, "")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestMergeAggregate(t *testing.T) {
	shard0 := rowsOf([]any{"a", 2, 10, 1, 7}, []any{"b", 1, 5, 5, 5})
	shard1 := rowsOf([]any{"a", 3, 20, 0, 9}, []any{"c", 1, nil, 2, 2})
	got := mergeOf(t, `SELECT k, count(*), sum(v), min(v), max(v) FROM s GROUP BY k`, shard0, shard1)
	want := rowsOf([]any{"a", 5, 30, 0, 9}, []any{"b", 1, 5, 5, 5}, []any{"c", 1, nil, 2, 2})
	if !sameRows(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

// TestMergeSumTypedByBind: the final block's sum reads the shards' partial
// columns as Bind typed them, from the first shard's answer, and a shard's
// answer holds its declared types: a BIGINT partial column sums in the BIGINT
// lane, to a BIGINT equal to a re-sum of the partials, and a DOUBLE in it —
// which only a shard that broke its own schema sends — is refused by an error
// naming the sum, not widened.
func TestMergeSumTypedByBind(t *testing.T) {
	p, err := planFor(t, `SELECT k, sum(v) FROM s GROUP BY k`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bind([]server.WireColumn{{Name: "k", Type: "VARCHAR"}, {Name: "sum", Type: "BIGINT"}}); err != nil {
		t.Fatal(err)
	}
	got, err := p.Merge([][]types.Row{rowsOf([]any{"a", 3}, []any{"b", nil}), rowsOf([]any{"a", -1 << 62}, []any{"b", nil})})
	if err != nil {
		t.Fatal(err)
	}
	if want := rowsOf([]any{"a", 3 - 1<<62}, []any{"b", nil}); !sameRows(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	if _, err := p.Merge([][]types.Row{rowsOf([]any{"a", 3}), rowsOf([]any{"a", 1.5})}); err == nil || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("a DOUBLE partial in a BIGINT column merged: %v, want an error naming the sum", err)
	}
}

// TestMergeDashboardPartials: a dashboard's own output rows, (key, count,
// sum), are its partial rows, so merging them unbound folds them; the
// benchmark's merge probe times exactly this.
func TestMergeDashboardPartials(t *testing.T) {
	got := mergeOf(t, `SELECT url, count(*) AS n, sum(bytes) AS total FROM hits <VISIBLE '10 seconds' ADVANCE '1 second'> GROUP BY url`,
		rowsOf([]any{"/a", 2, 10}, []any{"/b", 1, 4}), rowsOf([]any{"/a", 3, 5}))
	if want := rowsOf([]any{"/a", 5, 15}, []any{"/b", 1, 4}); !sameRows(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

func TestMergeAvgRecombine(t *testing.T) {
	// Scatter rows are (key, sum, count); the plan recombines each pair
	// into one DOUBLE column. Group "a" proves it is the global average
	// (35/5 = 7), not the average of per-shard averages ((5+6.67)/2);
	// group "c" saw only NULL inputs everywhere and must stay NULL.
	shard0 := rowsOf([]any{"a", 10, 2}, []any{"b", 4, 4}, []any{"c", nil, 0})
	shard1 := rowsOf([]any{"a", 25, 3}, []any{"c", nil, 0})
	got := mergeOf(t, `SELECT k, avg(v) FROM s GROUP BY k`, shard0, shard1)
	want := rowsOf([]any{"a", 7.0}, []any{"b", 1.0}, []any{"c", nil})
	if !sameRows(got, want) {
		t.Fatalf("avg merge = %v, want %v", got, want)
	}
}

func TestMergeAggregateNullSum(t *testing.T) {
	got := mergeOf(t, `SELECT count(*), sum(v) FROM s`, rowsOf([]any{0, nil}), rowsOf([]any{0, nil}))
	want := rowsOf([]any{0, nil})
	if !sameRows(got, want) {
		t.Fatalf("empty-window merge = %v, want %v", got, want)
	}
}

// TestMergeGroupByWithoutAggregate: a GROUP BY with no aggregate is no
// row-wise query: a group on two shards is one row, as on one node.
func TestMergeGroupByWithoutAggregate(t *testing.T) {
	got := mergeOf(t, `SELECT u FROM s GROUP BY u`, rowsOf([]any{1}), rowsOf([]any{1}, []any{2}))
	want := rowsOf([]any{1}, []any{2})
	if !sameRows(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

// TestMergeHavingOnlyAggregate: an aggregate only HAVING names makes the
// block an aggregate, so the shards' counts are summed before it filters, as
// one node counts them.
func TestMergeHavingOnlyAggregate(t *testing.T) {
	got := mergeOf(t, `SELECT 1 FROM s HAVING count(*) > 1`, rowsOf([]any{1}), rowsOf([]any{1}))
	if want := rowsOf([]any{1}); !sameRows(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

func TestMergeConcatCanonicalOrder(t *testing.T) {
	got := mergeOf(t, `SELECT k, v FROM s`, rowsOf([]any{"b", 2}), rowsOf([]any{"a", 1}, []any{"c", 3}))
	want := rowsOf([]any{"a", 1}, []any{"b", 2}, []any{"c", 3})
	if !sameRows(got, want) {
		t.Fatalf("concat = %v, want %v", got, want)
	}
}

// TestMergeRefusesShardDisagreement: the final block is planned over the
// first answering shard's columns, so a shard whose columns differ, or
// whose row is of another width, fails the merge naming that shard, where
// the parent dropped its rows.
func TestMergeRefusesShardDisagreement(t *testing.T) {
	p, err := planFor(t, `SELECT u, count(*) FROM s GROUP BY u`, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge([][]types.Row{rowsOf([]any{"a", 1}), rowsOf([]any{"a"})}); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("short row from shard 1: %v", err)
	}
	var cols []server.WireColumn
	first := []server.WireColumn{{Name: "u", Type: "VARCHAR"}, {Name: "count", Type: "BIGINT"}}
	if err := agree(&cols, 0, first); err != nil || !slices.Equal(cols, first) {
		t.Fatalf("first shard: %v, %v", cols, err)
	}
	if err := agree(&cols, 2, []server.WireColumn{{Name: "u", Type: "BIGINT"}, first[1]}); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("shard 2 answering other columns: %v", err)
	}
}

func TestCQMergerWatermark(t *testing.T) {
	type emitted struct {
		close   int64
		rows    []types.Row
		partial bool
	}
	var got []emitted
	p, err := planFor(t, `SELECT count(*) FROM s <ADVANCE '1 minute'>`, "k")
	if err != nil {
		t.Fatal(err)
	}
	m := newCQMerger(p, 2, false,
		func(c int64, rows []types.Row, partial bool) {
			got = append(got, emitted{c, rows, partial})
		})

	m.onBatch(0, 100, rowsOf([]any{3}))
	if len(got) != 0 {
		t.Fatal("emitted before shard 1 reached close 100")
	}
	m.onBatch(1, 100, rowsOf([]any{4}))
	if len(got) != 1 || got[0].close != 100 || got[0].rows[0][0].Int() != 7 {
		t.Fatalf("close 100: %+v", got)
	}

	// Shard 1 skips close 200 (fires 300 directly): 200 emits with only
	// shard 0's contribution once shard 1's watermark passes it.
	m.onBatch(0, 200, rowsOf([]any{1}))
	m.onBatch(1, 300, rowsOf([]any{2}))
	if len(got) != 2 || got[1].close != 200 || got[1].rows[0][0].Int() != 1 {
		t.Fatalf("skipped close: %+v", got)
	}

	// Shard 0 catches up to 300: both contributions merge.
	m.onBatch(0, 300, rowsOf([]any{5}))
	if len(got) != 3 || got[2].close != 300 || got[2].rows[0][0].Int() != 7 || got[2].partial {
		t.Fatalf("close 300: %+v", got)
	}

	// Shard 1 dies: it stops gating the watermark and everything after
	// is flagged partial.
	m.markDead(1)
	m.onBatch(0, 400, rowsOf([]any{6}))
	if len(got) != 4 || got[3].close != 400 || got[3].rows[0][0].Int() != 6 || !got[3].partial {
		t.Fatalf("after death: %+v", got)
	}
}

func TestCQMergerOrdering(t *testing.T) {
	var closes []int64
	p, err := planFor(t, `SELECT v FROM s <ADVANCE '1 minute'>`, "k")
	if err != nil {
		t.Fatal(err)
	}
	m := newCQMerger(p, 2, false,
		func(c int64, rows []types.Row, partial bool) { closes = append(closes, c) })
	m.onBatch(0, 100, rowsOf([]any{1}))
	m.onBatch(0, 200, rowsOf([]any{2}))
	m.onBatch(0, 300, rowsOf([]any{3}))
	m.onBatch(1, 300, rowsOf([]any{4}))
	m.onBatch(1, 100, rowsOf([]any{9})) // late frame for an emitted close: dropped
	if want := []int64{100, 200, 300}; !reflect.DeepEqual(closes, want) {
		t.Fatalf("closes = %v, want %v", closes, want)
	}
	if left := m.closesOf(1); len(left) != 0 {
		t.Fatalf("shard 1 leftover closes = %v", left)
	}
}

// closesOf is the sorted pending closes of one shard.
func (m *cqMerger) closesOf(shard int) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.pending[shard]))
	for c := range m.pending[shard] {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// TestShardOfPlacesGroupingKeys: a key's shard follows its grouping key, so
// the values one node groups together share a shard at every shard count.
func TestShardOfPlacesGroupingKeys(t *testing.T) {
	for n := 1; n <= 8; n++ {
		m := Map{Addrs: make([]string, n)}
		for _, pair := range [][2]types.Datum{
			{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1))},
			{types.NewInt(42), types.NewFloat(42)},
		} {
			if a, b := m.ShardOf(pair[0]), m.ShardOf(pair[1]); a != b {
				t.Errorf("%d shards: %v on shard %d, %v on shard %d", n, pair[0], a, pair[1], b)
			}
		}
	}
}
