package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamrel/internal/metrics"
)

// metric is one reported value. N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is everything one run of one workload produced. The driver's
// contract line carries a subset; -out and the suite keep all of it.
type runResult struct {
	Workload        string            `json:"workload"`
	Seed            int64             `json:"seed"`
	Seconds         int               `json:"seconds"`
	Trace           int               `json:"trace"`
	Smoke           bool              `json:"smoke,omitempty"`
	GoVersion       string            `json:"go_version"`
	NumCPU          int               `json:"nproc"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	AllowGOMAXPROCS bool              `json:"allow_gomaxprocs,omitempty"`
	PacedRate       float64           `json:"paced_rate"`
	Correct         bool              `json:"correct"`
	Attempted       int64             `json:"ops_attempted"`
	Failed          int64             `json:"ops_failed"`
	Metrics         map[string]metric `json:"metrics"`
	Explain         []explainRec      `json:"explain,omitempty"`
	Transcripts     map[string]string `json:"transcripts,omitempty"`
	Ledger          *ledger           `json:"ledger,omitempty"`
	Notes           []string          `json:"notes,omitempty"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	smoke   bool
	tmp     string // parent of data directories
	outDir  string // where <workload>.trace.json goes
	// corruptReference flips one bit of the first expected window of every
	// subscriber, to show that a wrong result fails the run.
	corruptReference bool
}

// setupRepeats is how often a run sets its workload up; setup_s is the
// median and the last rig is the one that takes load.
const setupRepeats = 7

func (c runConfig) scale(d time.Duration) time.Duration {
	if c.smoke {
		return d / 10
	}
	return d
}

func newResult(w *workloadDef, cfg runConfig, traceMode int) *runResult {
	return &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traceMode, Smoke: cfg.smoke,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		PacedRate: w.pacedRate, Metrics: map[string]metric{}, Transcripts: map[string]string{},
	}
}

func (res *runResult) set(name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *runResult) setTiming(name string, t timing, q float64) {
	res.Metrics[name] = metric{Value: t.ms(q), Unit: "ms", N: t.n}
	if q > 0.5 && t.n > 0 && !t.supports(q) {
		res.Notes = append(res.Notes, fmt.Sprintf("%s: only %d samples, fewer than ten beyond this percentile (p%g is the highest supported)",
			name, t.n, 100*supportedTail(t.n)))
	}
}

// eachProducer runs fn once per producer, concurrently, and waits.
func eachProducer(r *rig, fn func(p *producer)) {
	var wg sync.WaitGroup
	for _, p := range r.producers {
		wg.Add(1)
		go func(p *producer) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// closedPhase appends rows rows closed loop on every producer.
func closedPhase(r *rig, phase uint8, rows int64, traced bool) time.Duration {
	start := time.Now()
	eachProducer(r, func(p *producer) { p.closedLoop(phase, rows, traced) })
	return time.Since(start)
}

// pacedPhase appends open loop for d at rate rows/s split evenly over the
// producers and returns the rows still unsent when d had passed.
func pacedPhase(r *rig, phase uint8, d time.Duration, rate float64) (backlogRows int64) {
	start := time.Now()
	per := rate / float64(len(r.producers))
	backlog := make([]int64, len(r.producers))
	eachProducer(r, func(p *producer) { backlog[p.id] = p.pacedLoop(phase, start, d, per) })
	for _, b := range backlog {
		backlogRows += b
	}
	return backlogRows
}

// phaseRows counts the rows acknowledged in a phase.
func phaseRows(r *rig, phase uint8) int64 {
	var n int64
	for _, p := range r.producers {
		for _, b := range p.log {
			if b.phase == phase && b.ok {
				n += batchRows
			}
		}
	}
	return n
}

// rateSlices is how many equal slices a closed-loop phase is cut into.
const rateSlices = 8

// sliceRate is the phase's throughput in rows/s: each producer's batches
// are cut into rateSlices equal runs, the producer's rate is the median of
// its runs' rates, and the producers' rates add up. A stall (an fsync
// hiccup, a collection, a neighbour on the host) slows one slice, not the
// reported rate.
func sliceRate(r *rig, phase uint8) float64 {
	total := 0.0
	for _, p := range r.producers {
		var recs []batchRec
		for _, b := range p.log {
			if b.phase == phase {
				recs = append(recs, b)
			}
		}
		per := len(recs) / rateSlices
		if per == 0 {
			if n := len(recs); n > 0 {
				total += float64(n*batchRows) / (float64(recs[n-1].ackNs-recs[0].sendNs) / 1e9)
			}
			continue
		}
		var rates []float64
		for k := 0; k < rateSlices; k++ {
			run := recs[k*per : (k+1)*per]
			acked := 0
			for _, b := range run {
				if b.ok {
					acked += batchRows
				}
			}
			// From this run's first send to the next run's first send: the
			// harness's own stamping between batches counts, as in the loop.
			end := run[per-1].ackNs
			if (k+1)*per < len(recs) {
				end = recs[(k+1)*per].sendNs
			}
			rates = append(rates, float64(acked)/(float64(end-run[0].sendNs)/1e9))
		}
		total += medianOf(rates)
	}
	return total
}

// ackTiming collects Append-call-to-ack latencies of a phase.
func ackTiming(r *rig, phase uint8) timing {
	var ns []int64
	for _, p := range r.producers {
		for _, b := range p.log {
			if b.phase == phase {
				ns = append(ns, b.ackNs-b.sendNs)
			}
		}
	}
	return newTiming(ns)
}

// lateTiming collects how late the open loop sent each batch.
func lateTiming(r *rig, phase uint8) timing {
	var ns []int64
	for _, p := range r.producers {
		for _, b := range p.log {
			if b.phase == phase {
				ns = append(ns, b.sendNs-b.dueNs)
			}
		}
	}
	return newTiming(ns)
}

func (r *rig) producerOf(s *streamSpec) *producer {
	for _, p := range r.producers {
		if p.spec == s {
			return p
		}
	}
	return nil
}

// deliveryTiming measures, for every window delivered during the paced
// phase, the time from when the batch holding the window-closing row was
// due to when the subscriber had the window.
func deliveryTiming(r *rig) timing {
	var ns []int64
	for _, s := range r.subs {
		p := r.producerOf(s.cq.stream)
		s.mu.Lock()
		for i, w := range s.got {
			g := s.cq.stream.firstAtOrAfter(w.closeUs)
			j := sort.Search(len(p.log), func(k int) bool { return p.log[k].g > g }) - 1
			if j < 0 || p.log[j].phase != phasePaced {
				continue
			}
			ns = append(ns, s.recvNs[i]-p.log[j].dueNs)
		}
		s.mu.Unlock()
	}
	return newTiming(ns)
}

// checkWindows waits for every subscriber to hold the windows the reference
// expects for the rows sent, compares them and records the transcripts.
func checkWindows(r *rig, cfg runConfig, res *runResult) {
	type key struct {
		ref              *refInput
		visible, advance int64
	}
	cache := map[key][]window{}
	for _, s := range r.subs {
		p := r.producerOf(s.cq.stream)
		k := key{s.cq.ref, s.cq.visible, s.cq.advance}
		want, ok := cache[k]
		if !ok {
			want = expectedWindows(s.cq.stream, s.cq.ref, s.cq.visible, s.cq.advance, p.g)
			cache[k] = want
		}
		deadline := time.Now().Add(20 * time.Second)
		for s.n.Load() < int64(len(want)) && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		s.mu.Lock()
		got := append([]window(nil), s.got...)
		s.mu.Unlock()
		if cfg.corruptReference && len(want) > 0 {
			want = append([]window(nil), want...)
			want[0].hash ^= 1
		}
		failed, first := compareWindows(got, want)
		res.Attempted += int64(len(want))
		res.Failed += int64(failed)
		if failed > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d of %d windows wrong: %s", s.cq.name, failed, len(want), first))
		}
		res.Transcripts[s.cq.name] = transcript(got)
	}
}

// finish folds the producers', the reader's and the workload's own checks
// into the result.
func finish(r *rig, cfg runConfig, res *runResult) {
	for _, p := range r.producers {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.lastErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("append to %s: %v", p.spec.name, p.lastErr))
		}
	}
	if rd := r.reader; rd != nil {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		if rd.lastErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("report: %v", rd.lastErr))
		}
	}
	if err := r.eng.Flush(); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("flush: %v", err))
	}
	checkWindows(r, cfg, res)
	if r.verify != nil {
		a, f, notes := r.verify()
		res.Attempted += a
		res.Failed += f
		res.Notes = append(res.Notes, notes...)
	}
	res.Explain = r.explain
	res.Correct = res.Failed == 0
}

// setUp builds the workload setupRepeats times and keeps the last rig.
func setUp(w *workloadDef, cfg runConfig, opt rigOptions, repeats int) (*rig, []float64, error) {
	var r *rig
	var took []float64
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = w.build(cfg.seed, opt); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return r, took, nil
}

// startReader launches the reader: maxQueries > 0 runs exactly that many
// closed loop, otherwise it runs open loop at perSec until the returned func
// is called. That func waits for the reader to end.
func startReader(r *rig, maxQueries int, perSec float64, traced bool) (wait func()) {
	if r.reader == nil {
		return func() {}
	}
	r.reader.done = make(chan struct{})
	go r.reader.run(maxQueries, perSec, traced)
	return func() {
		if maxQueries == 0 {
			r.reader.stop.Store(true)
		}
		<-r.reader.done
	}
}

// queryMetrics reports the reader's round trips that ended in [from, to).
func queryMetrics(r *rig, res *runResult, fromNs, toNs int64) {
	var ns []int64
	if rd := r.reader; rd != nil {
		for i, end := range rd.endNs {
			if end >= fromNs && end < toNs {
				ns = append(ns, rd.latNs[i])
			}
		}
	}
	t := newTiming(ns)
	res.setTiming("query_p50_ms", t, 0.5)
	res.setTiming("query_p99_ms", t, 0.99)
	qps := 0.0
	if toNs > fromNs {
		qps = float64(t.n) / (float64(toNs-fromNs) / 1e9)
	}
	res.set("queries_per_s", qps, "1/s")
}

// runTimed is a --trace 0 run: set-up, warm-up, the closed-loop sat phase
// and the open-loop paced phase, with the engine's tracing at its default.
func runTimed(w *workloadDef, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg, 0)
	r, setups, err := setUp(w, cfg, rigOptions{tmp: cfg.tmp}, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.set("setup_s", medianOf(setups), "s")

	// Of the measured seconds the closed-loop sat phase takes two fifths —
	// as rows, sized by the frozen satRate — and the open-loop paced phase
	// three fifths; report_mixed is paced throughout.
	total := cfg.scale(time.Duration(cfg.seconds) * time.Second)
	warm := cfg.scale(2 * time.Second)
	paced := total
	var satRows int64
	if w.satRate > 0 {
		paced = total * 3 / 5
		perProducer := w.satRate * (total - paced).Seconds() / float64(len(r.producers))
		satRows = int64(perProducer) / batchRows * batchRows
	}

	stopReader := startReader(r, 0, w.queryRate, false)
	var before, after runtime.MemStats
	var measuredPhase uint8
	var backlog int64
	if w.satRate > 0 {
		closedPhase(r, phaseWarm, satRows/4/batchRows*batchRows, false)
		runtime.ReadMemStats(&before)
		closedPhase(r, phaseSat, satRows, false)
		runtime.ReadMemStats(&after)
		measuredPhase = phaseSat
		backlog = pacedPhase(r, phasePaced, paced, w.pacedRate)
	} else {
		pacedPhase(r, phaseWarm, warm, w.pacedRate)
		runtime.ReadMemStats(&before)
		fromNs := nowNs()
		backlog = pacedPhase(r, phasePaced, paced, w.pacedRate)
		runtime.ReadMemStats(&after)
		measuredPhase = phasePaced
		queryMetrics(r, res, fromNs, nowNs())
	}
	stopReader()
	finish(r, cfg, res)

	rows := phaseRows(r, measuredPhase)
	res.set("rows_per_s", sliceRate(r, measuredPhase), "1/s")
	latencyMetrics(r, res, measuredPhase)
	if rows > 0 {
		res.set("allocs_per_row", float64(after.Mallocs-before.Mallocs)/float64(rows), "count")
		res.set("alloc_bytes_per_row", float64(after.TotalAlloc-before.TotalAlloc)/float64(rows), "bytes")
	}
	late := lateTiming(r, phasePaced)
	res.setTiming("gen.late_p99_ms", late, 0.99)
	res.set("gen.backlog_rows_end", float64(backlog), "count")
	if float64(backlog) > w.pacedRate/4 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"generator ended %d rows behind: paced_rate %.0f rows/s is above what this box sustains, delivery_* is unresolved",
			backlog, w.pacedRate))
	}
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// latencyMetrics reports append-to-ack latency over one phase and
// due-to-delivery latency over the paced phase.
func latencyMetrics(r *rig, res *runResult, ackPhase uint8) {
	ack := ackTiming(r, ackPhase)
	res.setTiming("append_ack_p50_ms", ack, 0.5)
	res.setTiming("append_ack_p99_ms", ack, 0.99)
	del := deliveryTiming(r)
	res.setTiming("delivery_p50_ms", del, 0.5)
	res.setTiming("delivery_p95_ms", del, 0.95)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// sampleSet indexes one registry snapshot.
type sampleSet []*metrics.Sample

// sum adds the values of every series called name (all label sets).
func (ss sampleSet) sum(name string) float64 {
	v := 0.0
	for _, s := range ss {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}

// hist merges the histograms called name whose labels include want; the
// zero Sample when there is none.
func (ss sampleSet) hist(name string, want ...metrics.Label) metrics.Sample {
	merged := metrics.Sample{Name: name, Kind: metrics.KindHistogram}
next:
	for _, s := range ss {
		if s.Name != name || s.Kind != metrics.KindHistogram {
			continue
		}
		for _, w := range want {
			found := false
			for _, l := range s.Labels {
				if l == w {
					found = true
				}
			}
			if !found {
				continue next
			}
		}
		if merged.Buckets == nil {
			merged.Buckets = make([]metrics.Bucket, len(s.Buckets))
			copy(merged.Buckets, s.Buckets)
			for i := range merged.Buckets {
				merged.Buckets[i].Count = 0
			}
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
		for i := range merged.Buckets {
			if i < len(s.Buckets) {
				merged.Buckets[i].Count += s.Buckets[i].Count
			}
		}
	}
	return merged
}

// histMean is the histogram's sum over its count, 0 when empty.
func histMean(h metrics.Sample) float64 { return ratio(h.Sum, float64(h.Count)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pass is one row-bounded closed-loop pass of a --trace 1 run.
type pass struct {
	wall time.Duration
	rows int64
}

// runPass pushes exactly w.passRows rows through every producer (and
// w.passQueries reports through the reader), closed loop.
func runPass(r *rig, w *workloadDef, cfg runConfig, traced bool) pass {
	rows := w.passRows
	queries := w.passQueries
	if cfg.smoke {
		rows, queries = rows/10/batchRows*batchRows, (queries+9)/10
	}
	wait := startReader(r, queries, 0, traced)
	wall := closedPhase(r, phasePass, rows, traced)
	wait()
	return pass{wall: wall, rows: phaseRows(r, phasePass)}
}

// runTraced is a --trace 1 run: the layer probes, an untraced row-bounded
// pass (which also yields the reader and generator metrics), and the same
// pass with every batch traced, from which the span ledger is built.
func runTraced(w *workloadDef, cfg runConfig) (*runResult, error) {
	res := newResult(w, cfg, 1)

	// A discarded quarter-length pass first: it faults in the memory both
	// real passes then reuse, so that neither pays for growing the heap.
	r, _, err := setUp(w, cfg, rigOptions{tmp: cfg.tmp}, 1)
	if err != nil {
		return nil, err
	}
	warm := *w
	warm.passRows, warm.passQueries = w.passRows/4/batchRows*batchRows, w.passQueries/4
	runPass(r, &warm, cfg, false)
	r.close()

	// Untraced twin: same rows, engine tracing at its default.
	if r, _, err = setUp(w, cfg, rigOptions{tmp: cfg.tmp}, 1); err != nil {
		return nil, err
	}
	fromNs := nowNs()
	plain := runPass(r, w, cfg, false)
	queryMetrics(r, res, fromNs, nowNs())
	backlog := pacedPhase(r, phasePaced, cfg.scale(5*time.Second), w.pacedRate)
	// The wall-clock view of this run: throughput and ack latency from the
	// closed-loop pass, delivery latency from the paced segment.
	res.set("rows_per_s", sliceRate(r, phasePass), "1/s")
	latencyMetrics(r, res, phasePass)
	res.setTiming("gen.late_p99_ms", lateTiming(r, phasePaced), 0.99)
	res.set("gen.backlog_rows_end", float64(backlog), "count")
	probeErr := runProbes(r, cfg.tmp, res.Metrics)
	finish(r, cfg, res)
	r.close()
	if probeErr != nil {
		return nil, probeErr
	}

	// Traced pass.
	r, _, err = setUp(w, cfg, rigOptions{tmp: cfg.tmp, traced: true}, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	depthMax := make(chan float64)
	stopSampling := make(chan struct{})
	go func() {
		max := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				depthMax <- max
				return
			case <-tick.C:
				for _, s := range r.eng.Metrics().Gather() {
					if s.Name == "streamrel_pipeline_queue_depth" && s.Value > max {
						max = s.Value
					}
				}
			}
		}
	}()
	traced := runPass(r, w, cfg, true)
	lastAck := time.Now()
	close(stopSampling)
	res.set("stream.queue_depth_max", <-depthMax, "count")
	if r.rep != nil {
		err := r.rep.WaitFor(r.eng.Repl().LSN(), 30*time.Second)
		res.set("replica.drain_ms", float64(time.Since(lastAck).Microseconds())/1e3, "ms")
		if err != nil {
			res.Notes = append(res.Notes, err.Error())
		}
	} else {
		res.set("replica.drain_ms", 0, "ms")
	}
	finish(r, cfg, res)

	var bench []span
	for _, p := range r.producers {
		bench = append(bench, p.spans.spans...)
	}
	if r.reader != nil {
		bench = append(bench, r.reader.spans.spans...)
	}
	engine := engineSpans(r.eng, "engine")
	if r.replicaEng != nil {
		engine = append(engine, engineSpans(r.replicaEng, "replica")...)
	}
	tracedMetrics(r, w, res, bench, engine, plain, traced)
	if err := writeTrace(w, cfg, append(bench, engine...)); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedMetrics derives the span-, counter- and stats-based layer metrics
// and the ledger from the traced pass.
func tracedMetrics(r *rig, w *workloadDef, res *runResult, bench, engine []span, plain, traced pass) {
	rows := float64(traced.rows)
	var genNs int64
	for _, p := range r.producers {
		genNs += p.genNs
	}
	ss := sumStages(bench, engine, r.parallel)
	samples := sampleSet(r.eng.Metrics().Gather())
	stats := r.eng.Stats()

	on := func(k string) float64 { return float64(ss.onPath[k]) }
	all := func(k string) float64 { return float64(ss.onPath[k] + ss.offPath[k]) }
	n := func(k string) float64 { return float64(ss.count[k]) }

	// trace: the cost of the ledger itself.
	plainRate := float64(plain.rows) / plain.wall.Seconds()
	tracedRate := rows / traced.wall.Seconds()
	res.set("trace.overhead_pct", 100*ratio(plainRate-tracedRate, plainRate), "%")
	res.set("trace.spans_recorded", float64(len(bench)+len(engine)), "count")
	res.set("trace.spans_dropped", float64(ss.tracesNoEngine), "count")

	// server: command histograms of the engine behind the wire.
	appendCmd := samples.hist("streamrel_server_command_seconds", metrics.L("op", "append"))
	res.set("server.cmd_append_mean_ms", 1e3*histMean(appendCmd), "ms")
	res.set("server.cmd_query_mean_ms",
		1e3*histMean(samples.hist("streamrel_server_command_seconds", metrics.L("op", "query"))), "ms")
	res.set("server.cmd_errors", samples.sum("streamrel_server_command_errors_total"), "count")

	// client and stream: self time of the append root. Over the wire the
	// server's command time splits it into the client's share (marshal,
	// loopback, JSON decode, response) and the engine's.
	rootSelf := float64(ss.rootSelfNs)
	ingestSelf, rttSelf := rootSelf, 0.0
	if r.srv != nil {
		serverNs := appendCmd.Sum * 1e9
		rttSelf = float64(ss.rootNs) - serverNs
		ingestSelf = rootSelf - rttSelf
	}
	res.set("client.append_rtt_self_ns_per_row", ratio(rttSelf, rows), "ns")
	res.set("stream.ingest_self_ns_per_row", ratio(ingestSelf, rows), "ns")
	res.set("stream.enqueue_wait_ns_per_batch", ratio(all("stream.enqueue_wait"), float64(ss.roots)), "ns")
	res.set("stream.pickup_wait_ns_per_batch", ratio(all("stream.pickup_wait"), n("stream.pickup_wait")), "ns")
	res.set("stream.fire_shared_ns_per_fire", ratio(all("stream.fire_shared"), n("stream.fire_shared")), "ns")
	res.set("stream.deliver_ns_per_fire", ratio(all("stream.deliver"), n("stream.deliver")), "ns")
	var rowsOut int64
	for _, s := range r.subs {
		rowsOut += s.rows.Load()
	}
	res.set("stream.rows_in", float64(stats.RowsProcessed), "count")
	res.set("stream.rows_out", float64(rowsOut), "count")
	res.set("stream.fires", float64(stats.WindowsFired), "count")
	res.set("stream.late_rows", float64(stats.LateDropped), "count")
	hosts := 0
	for _, ps := range stats.PerPipeline {
		if !ps.PlanShared {
			hosts++
		}
	}
	hosts += stats.PlanGroups
	res.set("stream.pipelines", float64(hosts), "count")
	res.set("stream.plan_groups", float64(stats.PlanGroups), "count")
	res.set("stream.plan_subscribers", float64(stats.PlanSubscribers), "count")
	res.set("stream.share_ratio", ratio(float64(stats.Pipelines), float64(hosts)), "ratio")
	res.set("stream.sched_steals", float64(stats.SchedSteals), "count")
	res.set("stream.sched_parks", float64(stats.SchedParks), "count")

	// exec and ivm: window fires by strategy.
	res.set("exec.fire_reexec_ns_per_fire", ratio(all("exec.fire_reexec"), n("exec.fire_reexec")), "ns")
	res.set("exec.fire_reexec_ns_per_window_row",
		ratio(all("exec.fire_reexec"), n("exec.fire_reexec")*float64(w.reexecWindowRows)), "ns")
	res.set("ivm.fire_ns_per_fire", ratio(all("ivm.fire"), n("ivm.fire")), "ns")
	res.set("ivm.fire_ns_per_group", ratio(all("ivm.fire"), float64(ss.outRows["ivm.fire"])), "ns")
	res.set("ivm.state_groups", samples.sum("streamrel_ivm_state_groups"), "count")
	res.set("ivm.state_slices", samples.sum("streamrel_ivm_state_slices"), "count")
	res.set("ivm.groups_touched", samples.sum("streamrel_ivm_groups_touched_total"), "count")

	// wal and repl: counters and span means of the durable path.
	res.set("wal.fsync_ns_per_batch", ratio(all("wal.fsync"), n("wal.fsync")), "ns")
	res.set("wal.appends", samples.sum("streamrel_wal_appends_total"), "count")
	res.set("wal.fsyncs", float64(samples.hist("streamrel_wal_fsync_seconds").Count), "count")
	res.set("wal.group_batches_mean", histMean(samples.hist("streamrel_wal_group_commit_batches")), "count")
	res.set("repl.overflows", samples.sum("streamrel_repl_subscriber_overflows_total"), "count")
	lag50, lag99 := 0.0, 0.0
	if r.replicaEng != nil {
		if h := sampleSet(r.replicaEng.Metrics().Gather()).hist("streamrel_repl_apply_lag_seconds"); h.Count > 0 {
			lag50, lag99 = 1e3*h.Quantile(0.5), 1e3*h.Quantile(0.99)
		}
	}
	res.set("replica.apply_lag_p50_ms", lag50, "ms")
	res.set("replica.apply_lag_p99_ms", lag99, "ms")

	// The ledger. base is what one producer spends per row of the traced
	// pass; spans and harness time are measured in that pass, probes are
	// estimates of work inside the two self-time containers.
	base := float64(len(r.producers)) * float64(traced.wall.Nanoseconds()) / rows
	rowsL := []ledgerRow{
		{Layer: "gen", NsPerRow: ratio(float64(genNs), rows), Source: "harness", OnPath: true},
		{Layer: "stream.ingest_self", NsPerRow: ratio(ingestSelf, rows), Source: "self", OnPath: true},
	}
	if r.srv != nil {
		rowsL = append(rowsL, ledgerRow{Layer: "client.append_rtt_self", NsPerRow: ratio(rttSelf, rows), Source: "self", OnPath: true})
	}
	for _, k := range []string{"stream.enqueue_wait", "stream.pickup_wait", "exec.fire_reexec", "ivm.fire",
		"stream.fire_shared", "stream.deliver", "wal.append", "wal.fsync", "replica.apply"} {
		if v := on(k); v > 0 {
			rowsL = append(rowsL, ledgerRow{Layer: k, NsPerRow: v / rows, Source: "span", OnPath: true})
		}
		if v := float64(ss.offPath[k]); v > 0 {
			rowsL = append(rowsL, ledgerRow{Layer: k, NsPerRow: v / rows, Source: "span", OnPath: false})
		}
	}
	for _, name := range w.pathProbes {
		rowsL = append(rowsL, ledgerRow{Layer: strings.TrimSuffix(name, "_ns_per_row") + " (probe)",
			NsPerRow: res.Metrics[name].Value, Source: "probe", OnPath: true})
	}
	l := buildLedger(base, rowsL)
	res.Ledger = &l
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the traced pass's spans, the benchmark's and the
// engines', to outDir/<workload>.trace.json.
func writeTrace(w *workloadDef, cfg runConfig, spans []span) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, w.name+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(&traceFile{Workload: w.name, Seed: cfg.seed, Spans: spans}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
