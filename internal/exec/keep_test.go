package exec

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// keptJoin is probe ⋈ heap on the first column of each, keeping its build
// side in keep when keep is set.
func keptJoin(probe []types.Row, h *storage.Heap, typ JoinType, keep *JoinBuild) *HashJoin {
	return &HashJoin{Left: &Values{Rows: probe}, Right: &SeqScan{Heap: h},
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: typ, LeftWidth: 2, RightWidth: 2, Keep: keep}
}

// execJoin runs j under snap and reports whether Open adopted the side keep
// held before it ran.
func execJoin(t *testing.T, snap txn.Snapshot, j *HashJoin) (rows []string, adopted bool) {
	t.Helper()
	var before []buildRow
	if j.Keep != nil {
		_, before = j.Keep.Kept()
	}
	if err := j.Open(&Ctx{Snap: snap}); err != nil {
		t.Fatal(err)
	}
	adopted = len(before) > 0 && len(j.build) > 0 && &j.build[0] == &before[0]
	for {
		batch, err := j.NextBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		rows = append(rows, rowStrings(batch)...)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return rows, adopted
}

// TestKeptBuildMatchesFresh is the model test of the reuse rule: random
// interleavings of every heap write (runs, refreshes of occupied slots,
// deletes and their undoing), commits, aborts, vacuums and snapshots — a
// join executed under an older snapshot after a newer one, and under a
// transaction's own — and under each snapshot the join that keeps its build
// side returns what a join that builds afresh does, row for row.
func TestKeptBuildMatchesFresh(t *testing.T) {
	probe := make([]types.Row, 10)
	for i := range probe {
		probe[i] = nrow(int64(i%9)-1, int64(i)) // one NULL key; key 8 is rarely in the table
	}
	var adopted, execs int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mgr := txn.NewManager()
		h := storage.NewHeap("dim", types.Schema{{Name: "k", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}})
		keeps := map[JoinType]*JoinBuild{JoinInner: {Heap: h}, JoinLeft: {Heap: h}}
		type open struct {
			tx      txn.Txn
			deleted []storage.RowID
		}
		var txs []*open
		snaps := []txn.Snapshot{mgr.SnapshotNow()}
		dimRow := func() types.Row { return nrow(int64(rng.Intn(10))-1, int64(rng.Intn(1000))) }
		for step := 0; step < 400; step++ {
			var w *open
			if len(txs) > 0 {
				w = txs[rng.Intn(len(txs))]
			}
			op := rng.Intn(10)
			if w == nil && op > 0 && op < 7 {
				op = 9 // nothing in flight to write: execute
			}
			switch {
			case op == 0 && len(txs) < 3:
				txs = append(txs, &open{tx: mgr.Begin()})
			case op == 1:
				rows := make([]types.Row, rng.Intn(3)+1)
				for i := range rows {
					rows[i] = dimRow()
				}
				h.InsertRun(w.tx.ID, rows)
			case op == 2 && h.NextID() > 0:
				h.InsertRunAt(w.tx.ID, storage.RowID(rng.Intn(int(h.NextID()))), []types.Row{dimRow()})
			case op == 3 && h.NextID() > 0:
				if rid := storage.RowID(rng.Intn(int(h.NextID()))); h.Delete(w.tx.ID, rid) == nil {
					w.deleted = append(w.deleted, rid)
				}
			case op == 4 && len(w.deleted) > 0:
				h.UndoDelete(w.tx.ID, w.deleted[0])
				w.deleted = w.deleted[1:]
			case op == 5 || op == 6:
				if op == 5 {
					w.tx.Commit()
				} else {
					for _, rid := range w.deleted {
						h.UndoDelete(w.tx.ID, rid)
					}
					w.tx.Abort()
				}
				txs = slices.DeleteFunc(txs, func(o *open) bool { return o == w })
			case op == 7:
				h.Vacuum(mgr.SnapshotNow(), nil)
			default:
				snap := snaps[len(snaps)-1]
				switch r := rng.Intn(6); {
				case r == 0 && w != nil:
					snap = w.tx.Snap
				case r == 1:
					snap = snaps[rng.Intn(len(snaps))]
				case r < 4:
					snap = mgr.SnapshotNow()
					snaps = append(snaps, snap)
				}
				for typ, keep := range keeps {
					want, _ := execJoin(t, snap, keptJoin(probe, h, typ, nil))
					got, hit := execJoin(t, snap, keptJoin(probe, h, typ, keep))
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d, join type %d: the kept side joins\n%v\na fresh one\n%v", seed, step, typ, got, want)
					}
					if execs++; hit {
						adopted++
					}
				}
			}
		}
	}
	t.Logf("%d of %d executions adopted the kept side", adopted, execs)
	if adopted == 0 || adopted == execs {
		t.Fatalf("%d of %d executions adopted the kept side: the model does not exercise both paths", adopted, execs)
	}
}

// TestKeptBuildAllocs: on a hit, HashJoin.Open reads the heap's stamp and
// adopts the kept side — no scan, no hash table, no key scratch — so it
// allocates nothing at all (TestHashJoinBuildAllocs prices the build it
// replaces).
func TestKeptBuildAllocs(t *testing.T) {
	mgr := txn.NewManager()
	h := storage.NewHeap("dim", types.Schema{{Name: "k", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}})
	tx := mgr.Begin()
	h.InsertRun(tx.ID, streamRows(allocGroups))
	tx.Commit()
	keep := &JoinBuild{Heap: h}
	j := keptJoin(streamRows(allocGroups), h, JoinInner, keep)
	ctx := &Ctx{Snap: mgr.SnapshotNow()}
	open := func() {
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	open()
	if _, rows := keep.Kept(); len(rows) != allocGroups {
		t.Fatalf("the first Open kept %d build rows, want %d", len(rows), allocGroups)
	}
	if got := testing.AllocsPerRun(100, open); got != 0 {
		t.Errorf("HashJoin.Open over a kept side allocates %.0f times, want 0", got)
	}
}

// TestKeptBuildSharedByConcurrentExecutions: executions of one plan share
// its kept side and never write it — a match marks no build row in an INNER
// or LEFT join — so they may run at once; under -race this is the test that
// says so.
func TestKeptBuildSharedByConcurrentExecutions(t *testing.T) {
	mgr := txn.NewManager()
	h := storage.NewHeap("dim", types.Schema{{Name: "k", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}})
	h.InsertRun(txn.Bootstrap, streamRows(allocGroups))
	probe := streamRows(2 * allocGroups)
	ctx := &Ctx{Snap: mgr.SnapshotNow()}
	for _, typ := range []JoinType{JoinInner, JoinLeft} {
		keep := &JoinBuild{Heap: h}
		want, err := Drain(ctx, keptJoin(probe, h, typ, keep), 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got, err := Drain(ctx, keptJoin(probe, h, typ, keep), 0)
					if err != nil || !slices.Equal(rowStrings(got), rowStrings(want)) {
						t.Errorf("join type %d over a shared kept side: %d rows, %v; want %d", typ, len(got), err, len(want))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
