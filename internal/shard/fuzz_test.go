package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/server"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// FuzzShardSplitMerge checks the router's two merges against one node.
// Splitting arbitrary rows by key across N shards and concat-merging the
// parts back must be lossless — exactly the original rows, in canonical
// order. Aggregating each shard's part with the scatter query and merging
// the partials must give what aggregating the whole batch gives, grouped on
// a column that is not the key, so a group spans shards — and selected or
// not, as typeSeed's third bit says; its fourth bit adds a HAVING and an
// expression over aggregates, which only the final block can compute. The
// fuzzer drives
// shard count, key column, and row contents from raw bytes; a DOUBLE column
// holds -0.0 and 0.0, which group together, and NaN.
func FuzzShardSplitMerge(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(0), []byte("alpha\x00bravo\x00charlie"))
	f.Add(uint8(4), uint8(1), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(0), uint8(2), []byte{})
	f.Add(uint8(3), uint8(2), uint8(4), []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(3), uint8(1), uint8(9), []byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Fuzz(func(t *testing.T, nShards, keyCol, typeSeed uint8, data []byte) {
		n := int(nShards)%8 + 1
		m := Map{Addrs: make([]string, n)}
		const cols = 3
		kc := int(keyCol) % cols

		// Each column has one type for the whole batch (query results are
		// schema-uniform; mixed-type columns are not a case the router can
		// see). Individual values may still be NULL. Numbers come from a few
		// values each, so groups recur, and sums are exact in any order.
		schema := make(types.Schema, cols)
		for c := range schema {
			schema[c] = types.Column{Name: fmt.Sprintf("c%d", c),
				Type: [...]types.Type{types.TypeInt, types.TypeFloat, types.TypeString, types.TypeBool}[(int(typeSeed)+c)%4]}
		}
		mk := func(c int, chunk []byte) types.Datum {
			v := binary.LittleEndian.Uint64(chunk[1:9]) + uint64(c)
			if (uint64(chunk[0])+v)%7 == 0 {
				return types.Null
			}
			switch schema[c].Type {
			case types.TypeInt:
				return types.NewInt(int64(v%16) - 8)
			case types.TypeFloat:
				switch v % 16 {
				case 1:
					return types.NewFloat(math.Copysign(0, -1))
				case 2:
					return types.NewFloat(math.NaN())
				}
				return types.NewFloat(float64(int64(v%32)-16) / 8)
			case types.TypeString:
				return types.NewString(string(chunk[1 : 1+int(v%9)]))
			default:
				return types.NewBool(v%2 == 0)
			}
		}

		// Decode rows from the raw bytes: 9 bytes per row.
		var rows []types.Row
		for len(data) >= 9 {
			chunk := data[:9]
			data = data[9:]
			row := make(types.Row, cols)
			for c := 0; c < cols; c++ {
				row[c] = mk(c, chunk)
			}
			rows = append(rows, row)
		}

		wireParts, err := m.SplitWire(server.WireRows(rows), kc)
		if err != nil {
			t.Fatalf("SplitWire: %v", err)
		}
		parts := make([][]types.Row, len(wireParts))
		for i, p := range wireParts {
			parts[i] = server.Rows(p)
		}
		if len(parts) != n {
			t.Fatalf("got %d parts for %d shards", len(parts), n)
		}
		total := 0
		for s, part := range parts {
			total += len(part)
			for _, r := range part {
				if want := m.ShardOf(r[kc]); want != s {
					t.Fatalf("row with key %v placed on shard %d, want %d", r[kc], s, want)
				}
			}
		}
		if total != len(rows) {
			t.Fatalf("split changed row count: %d -> %d", len(rows), total)
		}

		merged := mergeOf(t, `SELECT c0, c1, c2 FROM t`, parts...)
		want := slices.Clone(rows)
		sortRows(want)
		if len(merged) != 0 || len(want) != 0 {
			if !sameRows(merged, want) {
				t.Fatalf("split+merge not lossless:\n got %v\nwant %v", merged, want)
			}
		}

		g, v := (kc+1)%cols, (kc+2)%cols
		key := fmt.Sprintf("c%d, ", g)
		if typeSeed&4 != 0 {
			key = "" // grouped by all the same
		}
		q := fmt.Sprintf(`SELECT %scount(*), count(c%d), min(c%d), max(c%d)`, key, v, v, v)
		if schema[v].Type.Numeric() {
			q += fmt.Sprintf(`, sum(c%d), avg(c%d)`, v, v)
		}
		if typeSeed&8 != 0 {
			q += `, count(*) * 2`
		}
		q += fmt.Sprintf(` FROM t GROUP BY c%d`, g)
		if typeSeed&8 != 0 {
			q += ` HAVING count(*) > 1`
		}
		merged, whole := splitMerge(t, q, schema[kc].Name, schema, parts)
		// A group that holds both zeros shows either as its key or its min,
		// on one node as merged, and NaN + NaN keeps either payload: compare
		// as SQL does, value and type.
		if !slices.EqualFunc(merged, whole, func(a, b types.Row) bool {
			return slices.EqualFunc(a, b, func(x, y types.Datum) bool {
				return x.Type() == y.Type() && types.Compare(x, y) == 0
			})
		}) {
			t.Fatalf("%s over %d shards:\nmerged %v\n whole %v", q, n, merged, whole)
		}
	})
}

// splitMerge runs q as the router runs it over parts partitioned on
// partCol — the scatter text over each part, as its shard would, then the
// merge — and as one node runs it over all their rows, both in canonical
// order.
func splitMerge(t *testing.T, q, partCol string, cols types.Schema, parts [][]types.Row) (merged, whole []types.Row) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := PlanMerge(stmt.(*sql.Select), partCol)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	scatter := q
	if mp.ScatterSQL != "" {
		scatter = mp.ScatterSQL
	}
	partials := make([][]types.Row, len(parts))
	var partialCols types.Schema
	for s, part := range parts {
		if partials[s], partialCols, err = runOver(scatter, cols, part); err != nil {
			t.Fatalf("shard %d: %s: %v", s, scatter, err)
		}
	}
	if _, err := mp.Bind(server.EncodeSchema(partialCols)); err != nil {
		t.Fatal(err)
	}
	if merged, err = mp.Merge(partials); err != nil {
		t.Fatalf("%s: merge: %v", q, err)
	}
	if whole, _, err = runOver(q, cols, slices.Concat(parts...)); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	sortRows(whole)
	return merged, whole
}

// runOver runs q over rows with the columns cols, as one node runs it over
// a table holding them, and returns its rows and columns.
func runOver(q string, cols types.Schema, rows []types.Row) ([]types.Row, types.Schema, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	sel := stmt.(*sql.Select)
	sel.From = []sql.TableRef{&sql.BaseTable{Name: plan.PreName}}
	pl, err := plan.BuildOver(sel, cols)
	if err != nil {
		return nil, nil, err
	}
	out, err := exec.Drain(&exec.Ctx{}, pl.Build(&plan.Input{WindowRows: rows}), 0)
	return out, pl.Columns, err
}
