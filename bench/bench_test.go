package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/types"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {40, 0.75}, {39, 0.5},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000 - i) // unsorted on purpose
	}
	tm := newTiming(ns)
	if tm.ms(0.5)*1e6 != 500 || tm.ms(0.99)*1e6 != 990 {
		t.Errorf("p50, p99 = %g, %g ns, want 500, 990", tm.ms(0.5)*1e6, tm.ms(0.99)*1e6)
	}
	if !tm.supports(0.99) || tm.supports(0.999) {
		t.Errorf("1000 samples must support p99 and not p99.9")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	root := span{StartNs: 0, DurNs: 100}
	kids := []span{
		{StartNs: 10, DurNs: 20}, // [10,30)
		{StartNs: 20, DurNs: 30}, // [20,50) overlaps the first
		{StartNs: 90, DurNs: 30}, // [90,120) clipped to the root
		{StartNs: -5, DurNs: 3},  // wholly outside
	}
	if got := selfTime(root, kids); got != 50 {
		t.Errorf("selfTime = %d, want 100 - (40 + 10) = 50", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestSumStagesJoinsByTraceAndPath(t *testing.T) {
	bench := []span{{Trace: 7, Stage: stageAppend, StartNs: 1000_000, DurNs: 100_000, Rows: 256}}
	engine := []span{
		{Trace: 7, Stage: "enqueue", StartNs: 1010_000, DurNs: 10_000},
		{Trace: 7, Stage: "window-fire", Mode: "reexec", StartNs: 1030_000, DurNs: 40_000, Rows: 5},
		{Trace: 7, Stage: "pickup", StartNs: 1020_000, DurNs: 5_000},
		{Trace: 8, Stage: "enqueue", StartNs: 1010_000, DurNs: 10_000}, // another batch
	}
	sync := sumStages(bench, engine, false)
	if sync.rootSelfNs != 50_000 {
		t.Errorf("synchronous engine: root self = %d, want 100000 - 10000 - 40000", sync.rootSelfNs)
	}
	par := sumStages(bench, engine, true)
	if par.rootSelfNs != 90_000 || par.offPath["exec.fire_reexec"] != 40_000 {
		t.Errorf("scheduled engine: root self = %d (want 90000), off-path fire = %d (want 40000)",
			par.rootSelfNs, par.offPath["exec.fire_reexec"])
	}
	if sync.tracesNoEngine != 0 || sync.roots != 1 {
		t.Errorf("tracesNoEngine = %d, roots = %d", sync.tracesNoEngine, sync.roots)
	}
}

// stallStream is a tiny stream for driving a producer without an engine.
func stallStream() *streamSpec {
	return keyStreamN("s", rand.New(rand.NewSource(1)), 16, 1000, batchRows)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// The sink stalls on the first batch only. An open loop must charge the
	// stall to the batches queued behind it: they are sent late, and their
	// latency from due time is far above their own send time.
	const stall = 60 * time.Millisecond
	first := true
	p := &producer{spec: stallStream(), rows: make([]streamrel.Row, batchRows),
		send: func(uint64, []streamrel.Row, *spanLog) error {
			if first {
				first = false
				time.Sleep(stall)
			}
			return nil
		}}
	r := &rig{producers: []*producer{p}}
	// 10 batches, one due every 10 ms.
	backlog := p.pacedLoop(phasePaced, time.Now(), 100*time.Millisecond, batchRows*100)
	if len(p.log) != 10 || backlog != 0 {
		t.Fatalf("sent %d batches (want 10), backlog %d", len(p.log), backlog)
	}
	second := p.log[1]
	own := second.ackNs - second.sendNs
	fromDue := second.ackNs - second.dueNs
	if fromDue < int64(stall/2) || own > int64(stall/4) {
		t.Errorf("second batch: %v from due, %v own; the stall must show in the first only", time.Duration(fromDue), time.Duration(own))
	}
	if late := lateTiming(r, phasePaced).ms(0.99); late < float64(stall/2)/1e6 {
		t.Errorf("gen.late_p99_ms = %g, want at least %v", late, stall/2)
	}
	// Without a stall the generator keeps its schedule.
	q := &producer{spec: stallStream(), rows: make([]streamrel.Row, batchRows),
		send: func(uint64, []streamrel.Row, *spanLog) error { return nil }}
	q.pacedLoop(phasePaced, time.Now(), 100*time.Millisecond, batchRows*100)
	if late := lateTiming(&rig{producers: []*producer{q}}, phasePaced).ms(0.5); late > 5 {
		t.Errorf("unstalled generator ran %g ms late at the median", late)
	}
}

func TestOpenLoopReportsBacklog(t *testing.T) {
	// 5 batches due within 50 ms, each taking 30 ms: most are still unsent
	// when the phase was due to end.
	p := &producer{spec: stallStream(), rows: make([]streamrel.Row, batchRows),
		send: func(uint64, []streamrel.Row, *spanLog) error { time.Sleep(30 * time.Millisecond); return nil }}
	backlog := p.pacedLoop(phasePaced, time.Now(), 50*time.Millisecond, batchRows*100)
	if len(p.log) != 5 || backlog < 2*batchRows {
		t.Errorf("sent %d batches (want all 5), backlog %d rows (want at least 2 batches)", len(p.log), backlog)
	}
}

func poolBytes(pool []streamrel.Row) []byte {
	var buf []byte
	for _, r := range pool {
		buf = types.EncodeRow(buf, r)
	}
	return buf
}

func TestSameSeedSameInputPool(t *testing.T) {
	gen := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		buf = append(buf, poolBytes(hitStream("h", rng, 100, 4096, 500).pool)...)
		buf = append(buf, poolBytes(secStream("e", rng, reportIPs, 15).pool)...)
		return append(buf, poolBytes(keyStreamN("k", rng, 10000, 3000, 4096).pool)...)
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different input pools")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same input pool")
	}
}

func TestStampingIsAFunctionOfRowIndex(t *testing.T) {
	s := stallStream()
	a, b := make([]streamrel.Row, 8), make([]streamrel.Row, 8)
	s.fill(a, 1000)
	s.fill(b, 1000)
	if !bytes.Equal(poolBytes(a), poolBytes(b)) {
		t.Error("stamping the same rows twice gave different rows")
	}
	for g := int64(0); g < 5000; g += 7 {
		ts := s.tsOf(g)
		if first := s.firstAtOrAfter(ts); s.tsOf(first) < ts || (first > 0 && s.tsOf(first-1) >= ts) {
			t.Fatalf("firstAtOrAfter(%d) = %d is not the first row at or after it", ts, first)
		}
	}
}

// naiveWindows recomputes every window from scratch with a map.
func naiveWindows(s *streamSpec, keyCol, valCol int, visible, advance, total int64) []window {
	var out []window
	last := s.tsOf(total - 1)
	for c := (s.tsOf(0)/advance + 1) * advance; c <= last; c += advance {
		type agg struct{ n, sum int64 }
		groups := map[string]*agg{}
		keys := map[string]streamrel.Value{}
		for g := int64(0); g < total; g++ {
			if ts := s.tsOf(g); ts < c-visible || ts >= c {
				continue
			}
			row := s.pool[g%int64(len(s.pool))]
			k := row[keyCol].String()
			if groups[k] == nil {
				groups[k] = &agg{}
				keys[k] = row[keyCol]
			}
			groups[k].n++
			groups[k].sum += row[valCol].Int()
		}
		var rows []streamrel.Row
		for k, a := range groups {
			rows = append(rows, streamrel.Row{keys[k], streamrel.Int(a.n), streamrel.Int(a.sum)})
		}
		out = append(out, reduceWindow(c, rows))
	}
	return out
}

func TestReferenceMatchesNaiveRecompute(t *testing.T) {
	s := keyStreamN("s", rand.New(rand.NewSource(3)), 40, 50, 512)
	in := buildRefInput(s.pool, colKey(0), 2)
	for _, geo := range [][2]int64{{10, 1}, {10, 4}, {3, 3}} {
		visible, advance := geo[0]*second, geo[1]*second
		got := expectedWindows(s, in, visible, advance, 2000)
		want := naiveWindows(s, 0, 2, visible, advance, 2000)
		if failed, first := compareWindows(got, want); failed != 0 || len(got) == 0 {
			t.Errorf("VISIBLE %ds ADVANCE %ds: %d of %d windows differ: %s", geo[0], geo[1], failed, len(want), first)
		}
	}
}

func TestCompareWindowsCountsEveryKindOfMiss(t *testing.T) {
	want := []window{{closeUs: 1, rows: 2, hash: 9}, {closeUs: 2, rows: 2, hash: 8}, {closeUs: 3, rows: 1, hash: 7}}
	if failed, _ := compareWindows(want, want); failed != 0 {
		t.Errorf("equal transcripts: %d failed", failed)
	}
	wrong := []window{want[0], {closeUs: 2, rows: 2, hash: 1}}
	if failed, first := compareWindows(wrong, want); failed != 2 || first == "" {
		t.Errorf("one wrong and one missing window: %d failed (%q), want 2", failed, first)
	}
	if failed, _ := compareWindows(append(append([]window(nil), want...), window{closeUs: 4}), want); failed != 1 {
		t.Errorf("one extra window: %d failed, want 1", failed)
	}
	if transcript(want) == transcript(wrong) {
		t.Error("different windows, same transcript")
	}
}

// lastLine parses the driver's JSON object from a run's output.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

func smokeArgs(t *testing.T, extra ...string) []string {
	return append([]string{"-smoke", "-workload", "wide_window", "-seed", "3", "-seconds", "5",
		"-tmpdir", t.TempDir(), "-outdir", t.TempDir()}, extra...)
}

func TestSmokeRunMeetsTheContract(t *testing.T) {
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() {
		t.Skip("GOMAXPROCS lowered")
	}
	var stdout, stderr bytes.Buffer
	if code := run(smokeArgs(t, "-trace", "0"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	line := lastLine(t, stdout.String())
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the result line, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	for _, s := range endToEnd {
		if m, ok := line.Metrics[s.Name]; !ok || m.Unit != s.Unit || !(m.Value > 0) {
			t.Errorf("%s = %+v (present %v), want a positive value in %s", s.Name, m, ok, s.Unit)
		}
	}
	for _, name := range []string{"rows_per_s", "delivery_p50_ms", "ops_failed", "explain visible_60s", "mode: incremental"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("output does not name %q", name)
		}
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() {
		t.Skip("GOMAXPROCS lowered")
	}
	var stdout, stderr bytes.Buffer
	code := run(smokeArgs(t, "-trace", "0", "-corrupt-reference"), &stdout, &stderr)
	line := lastLine(t, stdout.String())
	if code != 1 || line.Correct || line.Failed != 3 {
		t.Errorf("exit %d, correct=%v, failed=%d; want exit 1 with one failed window per subscriber (3)",
			code, line.Correct, line.Failed)
	}
}

func TestSameSeedSameCountsAndTranscripts(t *testing.T) {
	// The row-bounded pass must repeat exactly: same rows in, same fires,
	// same rows out, same transcripts.
	w := workloadByName("mem_fanout")
	cfg := runConfig{seed: 5, smoke: true, tmp: t.TempDir()}
	type outcome struct {
		rowsIn, fires, rowsOut int64
		transcripts            string
	}
	pass := func() outcome {
		r, err := w.build(cfg.seed, rigOptions{tmp: cfg.tmp, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		runPass(r, w, cfg, true)
		res := newResult(w, cfg, 1)
		finish(r, cfg, res)
		if res.Failed != 0 {
			t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
		}
		st := r.eng.Stats()
		o := outcome{rowsIn: st.RowsProcessed, fires: st.WindowsFired}
		for _, s := range r.subs {
			o.rowsOut += s.rows.Load()
			o.transcripts += s.cq.name + "=" + res.Transcripts[s.cq.name] + " "
		}
		return o
	}
	a, b := pass(), pass()
	if a != b {
		t.Errorf("same seed, different passes:\n%+v\n%+v", a, b)
	}
	if a.rowsIn == 0 || a.fires == 0 || a.rowsOut == 0 {
		t.Errorf("nothing measured: %+v", a)
	}
}

func TestRefusesLoweredGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "wide_window", "-trace", "0"}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "-allow-gomaxprocs") {
		t.Errorf("exit %d, stderr %q; want a refusal that names -allow-gomaxprocs", code, stderr.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(rows, ack, allocs, rss float64) *runResult {
		return &runResult{Workload: "wide_window", Trace: 0, Correct: true, Metrics: map[string]metric{
			"rows_per_s":        {Value: rows, Unit: "1/s"},
			"append_ack_p50_ms": {Value: ack, Unit: "ms"},
			"allocs_per_row":    {Value: allocs, Unit: "count"},
			"peak_rss_mb":       {Value: rss, Unit: "MB"},
		}}
	}
	// Old side: three runs; append_ack_p50_ms spreads far wider than its bound.
	olds := map[string][]*runResult{"wide_window/0": {mk(100, 1.0, 20, 100), mk(101, 2.0, 20, 101), mk(99, 3.0, 20, 99)}}
	news := map[string][]*runResult{"wide_window/0": {mk(70, 2.0, 22, 101)}}
	var stdout, stderr bytes.Buffer
	code := compareRuns(olds, news, &stdout, &stderr)
	out := stdout.String()
	verdict := func(metric string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, metric+" ") {
				return strings.TrimSpace(l[strings.LastIndex(l, "%")+1:])
			}
		}
		return "absent"
	}
	want := map[string]string{
		"allocs_per_row":    "worse",            // +10 % against a 3 % bound: rejects
		"peak_rss_mb":       "ok",               // +1 %
		"rows_per_s":        "worse (advisory)", // -30 %, but wall-clock metrics reject nothing
		"append_ack_p50_ms": "unresolved",       // same-code spread wider than the bound
	}
	for m, w := range want {
		if got := verdict(m); got != w {
			t.Errorf("%s: verdict %q, want %q\n%s", m, got, w, out)
		}
	}
	if code != 1 {
		t.Errorf("exit %d, want 1 for a bounded metric that got worse", code)
	}
	news["wide_window/0"] = []*runResult{mk(70, 2.0, 20, 100)}
	if code := compareRuns(olds, news, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0 when only advisory metrics got worse", code)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if bf.RunSeconds != 20 {
		t.Errorf("run_seconds = %d; the -seconds default and README assume 20", bf.RunSeconds)
	}
}
