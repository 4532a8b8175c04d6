package exec

import (
	"math/rand"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// BenchmarkSort is the Sort's CPU and allocation guard: one tree, kept and
// opened again at every op as a cached snapshot query's or a CQ's post stage
// is, sorts 10 000 projected rows (key, seq) by key descending, then seq —
// in full ("full") and under LIMIT 5 ("top5"). An op is one execution,
// pulled to its end.
func BenchmarkSort(b *testing.B) {
	defer func(p bool) { types.Poison = p }(types.Poison)
	types.Poison = false // as in the engine: a rewound block is not overwritten
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Row, 10000)
	for i := range rows {
		rows[i] = irow(rng.Int63n(1000), int64(i))
	}
	for _, c := range []struct {
		name  string
		limit int
	}{{"full", 0}, {"top5", 5}} {
		b.Run(c.name, func(b *testing.B) {
			var tree Operator = &Sort{Child: &Project{Child: &Values{Rows: rows}, Exprs: []*expr.Scalar{col(0), col(1)}},
				Keys: []SortKey{{Col: 0, Desc: true}, {Col: 1}}, Limit: c.limit}
			if c.limit > 0 {
				tree = &Limit{Child: tree, Count: int64(c.limit)}
			}
			ctx := &Ctx{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.Open(ctx); err != nil {
					b.Fatal(err)
				}
				for {
					batch, err := tree.NextBatch(chunkRows)
					if err != nil {
						b.Fatal(err)
					}
					if batch == nil {
						break
					}
				}
				tree.Close()
			}
		})
	}
}
