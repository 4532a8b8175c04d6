package streamrel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestDurabilityMatchesModelProperty drives random DML (inserts, updates,
// deletes, truncates) interleaved with checkpoints against a durable
// engine while maintaining a shadow model, then restarts and verifies the
// recovered table matches the model exactly. This exercises WAL batching,
// RowID-stable replay, a checkpoint's in-place vacuum and index entry
// deletion, and their interactions.
func TestDurabilityMatchesModelProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 40))
			dir := t.TempDir()
			e, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, `CREATE TABLE t (id bigint, v bigint)`)
			mustExec(t, e, `CREATE INDEX t_id ON t (id)`)

			model := map[int64]int64{} // id → v
			nextID := int64(0)
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(100); {
				case r < 55: // insert
					id := nextID
					nextID++
					v := rng.Int63n(1000)
					if _, err := e.ExecArgs(`INSERT INTO t VALUES ($1, $2)`, Int(id), Int(v)); err != nil {
						t.Fatal(err)
					}
					model[id] = v
				case r < 75: // update a random live id
					if len(model) == 0 {
						continue
					}
					id := anyKey(rng, model)
					v := rng.Int63n(1000)
					if _, err := e.ExecArgs(`UPDATE t SET v = $1 WHERE id = $2`, Int(v), Int(id)); err != nil {
						t.Fatal(err)
					}
					model[id] = v
				case r < 90: // delete
					if len(model) == 0 {
						continue
					}
					id := anyKey(rng, model)
					if _, err := e.ExecArgs(`DELETE FROM t WHERE id = $1`, Int(id)); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				case r < 94: // truncate
					if _, err := e.Exec(`TRUNCATE TABLE t`); err != nil {
						t.Fatal(err)
					}
					model = map[int64]int64{}
				default: // checkpoint
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Verify live state, then crash-restart and verify again.
			check := func(eng *Engine, phase string) {
				t.Helper()
				rows := mustQuery(t, eng, `SELECT id, v FROM t ORDER BY id`)
				want := modelRows(model)
				if len(rows.Data) != len(want) {
					t.Fatalf("%s: %d rows, model has %d", phase, len(rows.Data), len(want))
				}
				for i, r := range rows.Data {
					if r.String() != want[i] {
						t.Fatalf("%s row %d: %s vs model %s", phase, i, r.String(), want[i])
					}
				}
				// The index agrees with the heap.
				if len(model) > 0 {
					id := anyKey(rand.New(rand.NewSource(1)), model)
					got, err := eng.QueryArgs(`SELECT v FROM t WHERE id = $1`, Int(id))
					if err != nil || len(got.Data) != 1 || got.Data[0][0].Int() != model[id] {
						t.Fatalf("%s: index lookup id=%d: %v %v", phase, id, got, err)
					}
				}
			}
			check(e, "live")
			e.Close()
			e2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			check(e2, "recovered")
		})
	}
}

func anyKey(rng *rand.Rand, m map[int64]int64) int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[rng.Intn(len(keys))]
}

func modelRows(m map[int64]int64) []string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%d|%d", k, m[k])
	}
	return out
}
