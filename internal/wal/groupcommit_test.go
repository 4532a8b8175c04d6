package wal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/types"
)

// TestGroupCommitConcurrent hammers the log from many committers with
// Sync on and verifies (a) every acknowledged batch replays, in a
// per-goroutine order consistent with commit order, and (b) the group
// histogram accounts for every batch. Run under -race this also checks
// the leader/follower handoff for data races.
func TestGroupCommitConcurrent(t *testing.T) {
	const goroutines = 8
	const batches = 25
	reg := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{Sync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := []Record{{
					Kind: RecInsert, Table: fmt.Sprintf("t%d", g),
					RowID: uint64(b), Row: types.Row{types.NewInt(int64(b))},
				}}
				if err := l.Append(recs); err != nil {
					t.Errorf("append g=%d b=%d: %v", g, b, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	next := map[string]uint64{}
	total := 0
	if err := Replay(path, each(func(r Record) error {
		if r.RowID != next[r.Table] {
			return fmt.Errorf("%s: replayed RowID %d, want %d", r.Table, r.RowID, next[r.Table])
		}
		next[r.Table]++
		total++
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if want := goroutines * batches; total != want {
		t.Fatalf("replayed %d records, want %d", total, want)
	}

	var groups, batched int64
	for _, s := range reg.Gather() {
		if s.Name == "streamrel_wal_group_commit_batches" {
			groups = s.Count
			batched = int64(s.Sum)
		}
	}
	if groups == 0 {
		t.Fatal("no group-commit groups observed")
	}
	if batched != int64(goroutines*batches) {
		t.Fatalf("group histogram sums to %d batches, want %d", batched, goroutines*batches)
	}
}

// TestGroupCommitCloseDuringCommit closes the log while committers are
// mid-flight. The invariant: an Append that returned nil must replay; an
// Append that returned an error must have been rejected cleanly (no
// partial frame corrupting the tail for earlier acked batches).
func TestGroupCommitCloseDuringCommit(t *testing.T) {
	const goroutines = 6
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var acked [goroutines]int64 // highest RowID acked per goroutine, -1 none
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		acked[g] = -1
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := int64(0); ; b++ {
				select {
				case <-stop:
					return
				default:
				}
				err := l.Append([]Record{{
					Kind: RecInsert, Table: fmt.Sprintf("t%d", g),
					RowID: uint64(b), Row: types.Row{types.NewInt(b)},
				}})
				if err != nil {
					return // closed under us — fine, batch b is unacked
				}
				atomic.StoreInt64(&acked[g], b)
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let commits overlap
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Post-close appends fail explicitly.
	if err := l.Append([]Record{{Kind: RecDDL, SQL: "x"}}); err == nil {
		t.Fatal("append after close succeeded")
	}

	seen := map[string]int64{}
	for g := 0; g < goroutines; g++ {
		seen[fmt.Sprintf("t%d", g)] = -1
	}
	if err := Replay(path, each(func(r Record) error {
		if want := seen[r.Table] + 1; int64(r.RowID) != want {
			return fmt.Errorf("%s: replayed RowID %d, want %d", r.Table, r.RowID, want)
		}
		seen[r.Table]++
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		table := fmt.Sprintf("t%d", g)
		if seen[table] < acked[g] {
			t.Errorf("%s: acked through RowID %d but replayed through %d", table, acked[g], seen[table])
		}
	}
}

// TestGroupCommitMaxDelay: a leader configured to hold the door still
// commits everything durably, and concurrent committers merge into
// multi-batch groups.
func TestGroupCommitMaxDelay(t *testing.T) {
	const goroutines = 4
	const batches = 10
	reg := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{Sync: true, GroupCommitMaxDelay: time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := l.Append([]Record{{
					Kind: RecInsert, Table: "t", RowID: uint64(g*batches + b),
					Row: types.Row{types.NewInt(int64(b))},
				}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := Replay(path, each(func(Record) error { total++; return nil })); err != nil {
		t.Fatal(err)
	}
	if want := goroutines * batches; total != want {
		t.Fatalf("replayed %d records, want %d", total, want)
	}
	var groups int64
	var sum float64
	for _, s := range reg.Gather() {
		if s.Name == "streamrel_wal_group_commit_batches" {
			groups, sum = s.Count, s.Sum
		}
	}
	if groups == 0 || int64(sum) != int64(goroutines*batches) {
		t.Fatalf("histogram: %d groups summing %g batches, want sum %d", groups, sum, goroutines*batches)
	}
	if float64(groups) >= sum {
		t.Logf("no batching observed (%d groups for %g batches) — legal but unexpected under MaxDelay", groups, sum)
	}
}

// TestTruncateWaitsForLeader: Truncate during a commit storm must not
// interleave with a leader's write (which would corrupt the file). After
// the dust settles the log replays only post-truncate records.
func TestTruncateWaitsForLeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; ; b++ {
				select {
				case <-stop:
					return
				default:
				}
				// The log stays open for the whole storm, so any error
				// here is a real bug.
				if err := l.Append([]Record{{Kind: RecDDL, SQL: "stmt"}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := l.Truncate(); err != nil {
			t.Errorf("truncate: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The file must still parse cleanly from the front (no interleaved
	// garbage): Replay stops at a torn tail but must not error.
	if err := Replay(path, each(func(Record) error { return nil })); err != nil {
		t.Fatal(err)
	}
}
