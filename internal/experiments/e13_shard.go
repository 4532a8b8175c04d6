package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/shard"
	"streamrel/internal/types"
)

// E13 is the horizontal scale-out ladder: the same keyed, durable ingest
// workload driven by many concurrent producers against (a) one engine
// directly and (b) the shard router over 1, 2 and 4 shard engines, all
// over loopback TCP with SyncWAL on and a raw archive channel so every
// committed batch pays a txn commit + WAL fsync.
//
// This measures the paper's network-effect pressure applied to writes.
// The workload is the adversarial-but-realistic one for a single node:
// many clients each pushing small keyed batches as events happen, so the
// per-append fixed cost (source lock, txn commit, WAL write + fsync,
// archive channel) dominates the per-row cost and concurrent producers
// serialize behind the stream source lock. The router changes the shape
// of the work: it splits each batch by PARTITION BY key and its
// coalescing sender drains everything queued behind a busy shard into
// ONE wire append — router-level group commit — so the per-append fixed
// cost amortizes across producers, and with N > 1 the shards' WAL lanes
// overlap. Reported per rung: end-to-end ingest rows/s
// (durability-acked) and the window fire latency seen by a merged CQ
// subscription (wall-clock window close → merged batch delivery, which
// for the router includes the cross-shard watermark wait), and the
// whole-process heap allocations per ingested row. The direct and
// router ×1 rungs are the only srbench ladders that cross the wire codec,
// so their allocs/row are budget-gated (cmd/srbench -budget).
//
// On a single-core host the ladder still shows the router-level group
// commit win (router ×1 and ×2 beat direct), but rungs cannot scale
// with N: each extra shard duplicates engine fixed overhead while
// adding no CPU. On multi-core hosts the ×2 and ×4 rungs additionally
// overlap shard CPU.
func E13(s Scale) (*Table, error) {
	n := s.n(12_000)
	const producers = 32

	t := &Table{
		ID:    "E13",
		Title: "shard scale-out: keyed durable ingest, direct vs router over N shards",
		Header: []string{"topology", "shards", "rows", "ingest", "rate",
			"fire p50", "fire p95", "windows", "allocs/row"},
		Metrics: map[string]float64{},
	}

	type rung struct {
		label  string
		shards int
		router bool
		metric string
		allocs string // gated allocs/row metric, "" for the ungated rungs
	}
	rungs := []rung{
		{"direct", 1, false, "direct", "shard_direct_allocs_per_row"},
		{"router", 1, true, "shard1", "shard_router1_allocs_per_row"},
		{"router", 2, true, "shard2", ""},
		{"router", 4, true, "shard4", ""},
	}
	rates := map[string]float64{}
	for _, r := range rungs {
		elapsed, fires, allocs, err := shardRun(n, producers, r.shards, r.router)
		if err != nil {
			return nil, fmt.Errorf("%s ×%d: %w", r.label, r.shards, err)
		}
		p50, p95 := quantileDur(fires, 0.50), quantileDur(fires, 0.95)
		t.Rows = append(t.Rows, []string{
			r.label, fmt.Sprintf("%d", r.shards), fmt.Sprintf("%d", n),
			fmtDur(elapsed), fmtRate(n, elapsed),
			fmtDurOrDash(p50), fmtDurOrDash(p95), fmt.Sprintf("%d", len(fires)),
			fmt.Sprintf("%.1f", allocs),
		})
		if r.allocs != "" {
			t.Metrics[r.allocs] = allocs
		}
		rates[r.metric] = rate(n, elapsed)
		t.Metrics[r.metric+"_rows_per_s"] = rates[r.metric]
		if len(fires) > 0 {
			t.Metrics[r.metric+"_fire_p95_s"] = p95.Seconds()
		}
	}
	if rates["direct"] > 0 {
		for _, m := range []string{"shard1", "shard2", "shard4"} {
			t.Metrics[m+"_speedup_vs_direct"] = rates[m] / rates["direct"]
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d concurrent producers over loopback TCP, batches of %d keyed rows each, SyncWAL on", producers, shardBatch),
		"every rung archives the base stream to a table via an APPEND channel: each committed append pays a txn commit + WAL fsync",
		"the router's coalescing sender drains all sub-batches queued behind a busy shard into one append (router-level group commit), amortizing the per-append fixed cost across producers",
		"fire latency is wall-clock window close → (merged) CQ batch delivery; router rungs include the cross-shard watermark wait",
		"allocs/row is the whole-process Mallocs delta over the producer phase: producers, wire codec, router, shard engines and the CQ together",
	)
	return t, nil
}

// shardBatch is the rows-per-Append micro-batch each producer sends.
const shardBatch = 4

// shardRun boots nShards durable engines behind loopback servers
// (fronted by the router when useRouter is set), drives n keyed rows
// from concurrent producers, and returns the producer-phase wall time,
// the observed window fire latencies and the process's heap allocations
// per row over that phase.
func shardRun(n, producers, nShards int, useRouter bool) (time.Duration, []time.Duration, float64, error) {
	var addrs []string
	var engines []*streamrel.Engine
	var servers []*server.Server
	defer func() {
		for i := range servers {
			servers[i].Close()
			engines[i].Close()
		}
	}()
	for i := 0; i < nShards; i++ {
		dir, err := os.MkdirTemp("", "srbench-e13-")
		if err != nil {
			return 0, nil, 0, err
		}
		defer os.RemoveAll(dir)
		eng, err := streamrel.Open(streamrel.Config{
			Dir: dir, SyncWAL: true, TraceSampleEvery: -1,
		})
		if err != nil {
			return 0, nil, 0, err
		}
		srv := server.New(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			eng.Close()
			return 0, nil, 0, err
		}
		go srv.Serve()
		engines = append(engines, eng)
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}

	front := addrs[0]
	if useRouter {
		r, err := shard.NewRouter(shard.Options{Addrs: addrs, TraceSampleEvery: -1})
		if err != nil {
			return 0, nil, 0, err
		}
		defer r.Close()
		if up := r.WaitReady(10 * time.Second); up < nShards {
			return 0, nil, 0, fmt.Errorf("only %d of %d shards up", up, nShards)
		}
		front, err = r.Listen("127.0.0.1:0")
		if err != nil {
			return 0, nil, 0, err
		}
		go r.Serve()
	}

	admin, err := client.Dial(front)
	if err != nil {
		return 0, nil, 0, err
	}
	defer admin.Close()
	for _, stmt := range []string{
		`CREATE STREAM s (k varchar(16), v bigint, at timestamp CQTIME SYSTEM) PARTITION BY k`,
		`CREATE TABLE raw (k varchar(16), v bigint, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := admin.Exec(stmt); err != nil {
			return 0, nil, 0, fmt.Errorf("%s: %w", stmt, err)
		}
	}

	// The merged CQ: with CQTIME SYSTEM, closes are wall-clock-aligned
	// 250ms boundaries, so close→delivery is the fire latency.
	sub, err := admin.Subscribe(`SELECT count(*) AS c, cq_close(*) FROM s <ADVANCE '250 milliseconds'>`)
	if err != nil {
		return 0, nil, 0, err
	}
	var fmu sync.Mutex
	var fires []time.Duration
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for b := range sub.C {
			lat := time.Since(b.Close)
			fmu.Lock()
			fires = append(fires, lat)
			fmu.Unlock()
		}
	}()

	var next int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(front)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer c.Close()
			rows := make([]client.Row, shardBatch)
			for {
				lo := int(atomic.AddInt64(&next, shardBatch)) - shardBatch
				if lo >= n {
					return
				}
				for i := range rows {
					id := lo + i
					rows[i] = client.Row{
						types.NewString(fmt.Sprintf("k%02d", id%64)),
						types.NewInt(int64(id)),
						types.NewTimestamp(time.Now()), // overwritten: CQTIME SYSTEM
					}
				}
				if err := c.Append("s", rows...); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, nil, 0, err
	}

	sub.Close()
	<-subDone
	fmu.Lock()
	defer fmu.Unlock()
	return elapsed, fires, float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// quantileDur returns the q-quantile of the samples, or 0 if empty.
func quantileDur(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	cp := make([]time.Duration, len(d))
	copy(cp, d)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	i := int(q * float64(len(cp)-1))
	return cp[i]
}

func fmtDurOrDash(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmtDur(d)
}

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
