package shard

import (
	"encoding/binary"
	"testing"

	"streamrel/internal/server"
	"streamrel/internal/types"
)

// FuzzShardSplitMerge checks the router's batch round-trip invariant:
// splitting arbitrary rows by key across N shards and concat-merging the
// parts back must be lossless — exactly the original rows, in canonical
// order. The fuzzer drives shard count, key column, and row contents
// from raw bytes.
func FuzzShardSplitMerge(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(0), []byte("alpha\x00bravo\x00charlie"))
	f.Add(uint8(4), uint8(1), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(0), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, nShards, keyCol, typeSeed uint8, data []byte) {
		n := int(nShards)%8 + 1
		m := Map{Addrs: make([]string, n)}
		const cols = 3
		kc := int(keyCol) % cols

		// Each column has one type for the whole batch (query results are
		// schema-uniform; mixed-type columns are not a case the router can
		// see). Individual values may still be NULL.
		mk := func(c int, chunk []byte) types.Datum {
			v := binary.LittleEndian.Uint64(chunk[1:9]) + uint64(c)
			if (uint64(chunk[0])+v)%7 == 0 {
				return types.Null
			}
			switch (int(typeSeed) + c) % 4 {
			case 0:
				return types.NewInt(int64(v))
			case 1:
				return types.NewFloat(float64(int64(v)) / 8)
			case 2:
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

		plan := &MergePlan{Kind: MergeConcat}
		merged := plan.Merge(parts)

		want := make([]types.Row, len(rows))
		copy(want, rows)
		sortRows(want)
		if len(merged) == 0 && len(want) == 0 {
			return
		}
		if !sameRows(merged, want) {
			t.Fatalf("split+merge not lossless:\n got %v\nwant %v", merged, want)
		}
	})
}
