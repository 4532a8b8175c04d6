package streamrel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fanoutQueries are eight CQs of varying shape over one stream — the
// fan-out workload the parallel mode targets.
func fanoutQueries() []string {
	return []string{
		`SELECT url, count(*) FROM hits <ADVANCE '1 minute'> GROUP BY url`,
		`SELECT count(*) FROM hits <VISIBLE '3 minutes' ADVANCE '1 minute'>`,
		`SELECT client_ip, count(*) FROM hits <VISIBLE '2 minutes' ADVANCE '2 minutes'> GROUP BY client_ip`,
		`SELECT count(*) FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'> WHERE url = '/a'`,
		`SELECT url FROM hits <VISIBLE 5 ROWS ADVANCE 5 ROWS>`,
		`SELECT count(*) FROM hits <VISIBLE 16 ROWS ADVANCE 4 ROWS>`,
		`SELECT url, count(*) FROM hits <ADVANCE '2 minutes'> GROUP BY url`,
		`SELECT client_ip FROM hits <VISIBLE 3 ROWS ADVANCE 3 ROWS> WHERE url = '/b'`,
	}
}

// runFanout feeds a deterministic workload to eight CQs and returns each
// CQ's batches rendered as strings.
func runFanout(t *testing.T, cfg Config) [][]string {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	queries := fanoutQueries()
	cqs := make([]*CQ, len(queries))
	for i, q := range queries {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatalf("Subscribe(%q): %v", q, err)
		}
		cqs[i] = cq
		defer cq.Close()
	}
	rng := rand.New(rand.NewSource(42))
	urls := []string{"/a", "/b", "/c"}
	ts := int64(60_000_000 * 100)
	for step := 0; step < 30; step++ {
		rows := make([]Row, 1+rng.Intn(6))
		for i := range rows {
			ts += int64(rng.Intn(15_000_000))
			rows[i] = Row{
				String(urls[rng.Intn(len(urls))]),
				Timestamp(time.UnixMicro(ts).UTC()),
				String(fmt.Sprintf("10.0.0.%d", rng.Intn(4))),
			}
		}
		if err := e.Append("hits", rows...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("hits", time.UnixMicro(ts+600_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(cqs))
	for i, cq := range cqs {
		for _, b := range cq.Drain() {
			for _, r := range b.Rows {
				out[i] = append(out[i], fmt.Sprintf("%s|%s", b.Close.Format("15:04:05"), r.String()))
			}
		}
	}
	return out
}

// TestFanoutParallelMatchesSerial is the acceptance equivalence test: with
// ParallelCQ enabled, every CQ's output — batch boundaries, row contents,
// row order — is byte-identical to the synchronous engine, with CQs
// attaching to common stores and with a store apiece (StatePrivate).
func TestFanoutParallelMatchesSerial(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		override := StatePrivate
		if sharing {
			override = StateAuto
		}
		serial := runFanout(t, Config{StateOverride: override})
		parallel := runFanout(t, Config{StateOverride: override, ParallelCQ: 4})
		for i := range serial {
			if len(serial[i]) == 0 {
				t.Fatalf("CQ %d produced no output; workload too small", i)
			}
			for j := range serial[i] {
				if j >= len(parallel[i]) || serial[i][j] != parallel[i][j] {
					t.Fatalf("CQ %d diverges at %d (sharing=%v):\nserial:   %v\nparallel: %v",
						i, j, sharing, serial[i], parallel[i])
				}
			}
			if len(parallel[i]) != len(serial[i]) {
				t.Fatalf("CQ %d: parallel produced %d results, serial %d",
					i, len(parallel[i]), len(serial[i]))
			}
		}
	}
}

// TestParallelProducerStress is the -race stress test: goroutines push to
// distinct streams (no contention expected) while several more hammer one
// shared stream under LateClamp (timestamps collide and clamp). Per-CQ
// window contents on the distinct streams must match a serial engine fed
// the same rows; the shared stream's CQ must see every row exactly once
// across monotonically ordered windows.
func TestParallelProducerStress(t *testing.T) {
	const (
		producers   = 4
		sharedProds = 3
		batches     = 25
		batchRows   = 8
	)
	e, err := Open(Config{ParallelCQ: 4, LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	serial, err := Open(Config{LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()

	cqText := func(s string) string {
		return fmt.Sprintf(`SELECT url, count(*) FROM %s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`, s)
	}
	mkStream := func(eng *Engine, name string) *CQ {
		t.Helper()
		mustExec(t, eng, fmt.Sprintf(
			`CREATE STREAM %s (url varchar, atime timestamp CQTIME USER, client_ip varchar)`, name))
		cq, err := eng.Subscribe(cqText(name))
		if err != nil {
			t.Fatal(err)
		}
		return cq
	}

	parCQs := make([]*CQ, producers)
	serCQs := make([]*CQ, producers)
	for i := 0; i < producers; i++ {
		name := fmt.Sprintf("s%d", i)
		parCQs[i] = mkStream(e, name)
		serCQs[i] = mkStream(serial, name)
	}
	sharedCQ := mkStream(e, "shared")

	// genBatch is deterministic per (producer, batch), so the serial engine
	// can replay the identical feed.
	genBatch := func(prod, step int) []Row {
		rng := rand.New(rand.NewSource(int64(prod*1000 + step)))
		rows := make([]Row, batchRows)
		base := int64(60_000_000) * int64(100+step*2)
		for i := range rows {
			rows[i] = Row{
				String(fmt.Sprintf("/p%d", rng.Intn(3))),
				Timestamp(time.UnixMicro(base + int64(rng.Intn(90_000_000))).UTC()),
				String("ip"),
			}
		}
		return rows
	}

	var wg sync.WaitGroup
	errs := make(chan error, producers+sharedProds)
	for prod := 0; prod < producers; prod++ {
		wg.Add(1)
		go func(prod int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", prod)
			for step := 0; step < batches; step++ {
				if err := e.Append(name, genBatch(prod, step)...); err != nil {
					errs <- fmt.Errorf("producer %d: %w", prod, err)
					return
				}
			}
		}(prod)
	}
	var sharedPushed int64
	var sharedMu sync.Mutex
	for prod := 0; prod < sharedProds; prod++ {
		wg.Add(1)
		go func(prod int) {
			defer wg.Done()
			for step := 0; step < batches; step++ {
				rows := genBatch(100+prod, step)
				if err := e.Append("shared", rows...); err != nil {
					errs <- fmt.Errorf("shared producer %d: %w", prod, err)
					return
				}
				sharedMu.Lock()
				sharedPushed += int64(len(rows))
				sharedMu.Unlock()
			}
		}(prod)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Close all windows and drain the workers.
	endTS := time.UnixMicro(60_000_000 * 1000)
	for i := 0; i < producers; i++ {
		if err := e.AdvanceTime(fmt.Sprintf("s%d", i), endTS); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("shared", endTS); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Distinct streams: replay each feed serially and compare exactly.
	render := func(cq *CQ) []string {
		var out []string
		for _, b := range cq.Drain() {
			for _, r := range b.Rows {
				out = append(out, fmt.Sprintf("%d|%s", b.Close.UnixMicro(), r.String()))
			}
		}
		return out
	}
	for prod := 0; prod < producers; prod++ {
		name := fmt.Sprintf("s%d", prod)
		for step := 0; step < batches; step++ {
			if err := serial.Append(name, genBatch(prod, step)...); err != nil {
				t.Fatal(err)
			}
		}
		if err := serial.AdvanceTime(name, endTS); err != nil {
			t.Fatal(err)
		}
		got, want := render(parCQs[prod]), render(serCQs[prod])
		if len(got) == 0 {
			t.Fatalf("stream %s produced no windows", name)
		}
		for j := range want {
			if j >= len(got) || got[j] != want[j] {
				t.Fatalf("stream %s diverges at %d:\nparallel: %v\nserial:   %v", name, j, got, want)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("stream %s: parallel %d results, serial %d", name, len(got), len(want))
		}
	}

	// Shared stream: interleaving is nondeterministic, but LateClamp keeps
	// every row, window closes must be monotone, and with VISIBLE = 2 ×
	// ADVANCE every retained row is counted exactly twice.
	var lastClose int64 = -1 << 62
	var counted int64
	for _, b := range sharedCQ.Drain() {
		if b.Close.UnixMicro() <= lastClose {
			t.Fatalf("shared CQ close %d not after %d", b.Close.UnixMicro(), lastClose)
		}
		lastClose = b.Close.UnixMicro()
		for _, r := range b.Rows {
			counted += r[1].Int()
		}
	}
	if counted != 2*sharedPushed {
		t.Fatalf("shared CQ counted %d row-appearances, want %d (2 × %d pushed)",
			counted, 2*sharedPushed, sharedPushed)
	}
	if dropped := e.Stats().LateDropped; dropped != 0 {
		t.Fatalf("LateClamp dropped %d rows", dropped)
	}
}
