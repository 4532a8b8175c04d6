package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"streamrel"
)

// E14 measures what incremental view maintenance buys on the paper's
// canonical shape — a wide window advancing in small steps. A re-executing
// pipeline pays O(window rows) on every fire, so widening VISIBLE at a
// fixed ADVANCE makes each fire proportionally slower even though the
// output barely changes. The delta-compiled path (internal/ivm) pays
// O(batch) on arrival and O(groups) on fire, so fire latency is flat in
// window width. The ladder holds ADVANCE at 1 second and widens VISIBLE
// from 10s to 60s over a skewed 10k-group stream, reporting mean fire
// latency and heap allocations per fire for both modes — and fails if the
// two modes' emitted windows are not byte-identical, so the speedup is
// never reported over diverging answers.
func E14(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "incremental maintenance: fire latency vs window width (ADVANCE 1s)",
		Header: []string{"visible", "mode", "mean fire", "allocs/fire",
			"rows/fire", "speedup"},
		Metrics: map[string]float64{},
	}

	groups := s.n(10_000)
	rowsPerSec := s.n(3_000)
	const measuredFires = 12
	base := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC).UnixMicro()

	for _, visibleSec := range []int{10, 30, 60} {
		totalSec := visibleSec + measuredFires
		batches := ivmBatches(visibleSec, totalSec, rowsPerSec, groups, base)

		reexec, err := ivmRun(batches, visibleSec, base, false)
		if err != nil {
			return nil, err
		}
		inc, err := ivmRun(batches, visibleSec, base, true)
		if err != nil {
			return nil, err
		}
		if inc.transcript != reexec.transcript {
			return nil, fmt.Errorf("E14: VISIBLE %ds: incremental and re-exec emissions diverged", visibleSec)
		}
		if inc.transcript == "" {
			return nil, fmt.Errorf("E14: VISIBLE %ds: no windows fired", visibleSec)
		}

		speedup := float64(reexec.meanFire) / float64(inc.meanFire)
		vis := fmt.Sprintf("%ds", visibleSec)
		t.Rows = append(t.Rows,
			[]string{vis, "reexec", fmtDur(reexec.meanFire), fmtAllocs(reexec.allocsPerFire),
				fmt.Sprintf("%.0f", reexec.rowsPerFire), "-"},
			[]string{vis, "incremental", fmtDur(inc.meanFire), fmtAllocs(inc.allocsPerFire),
				fmt.Sprintf("%.0f", inc.rowsPerFire), fmtX(speedup)},
		)
		t.Metrics[fmt.Sprintf("v%d_reexec_fire_ms", visibleSec)] = float64(reexec.meanFire) / 1e6
		t.Metrics[fmt.Sprintf("v%d_incremental_fire_ms", visibleSec)] = float64(inc.meanFire) / 1e6
		t.Metrics[fmt.Sprintf("v%d_speedup", visibleSec)] = speedup
		t.Metrics[fmt.Sprintf("v%d_incremental_allocs_per_fire", visibleSec)] = inc.allocsPerFire
		// The budget-gated form: allocations per emitted row, which is
		// stable across -scale (raw allocs/fire grows with the group
		// count and would need a budget per scale).
		if inc.rowsPerFire > 0 {
			t.Metrics[fmt.Sprintf("v%d_incremental_allocs_per_emitted_row", visibleSec)] =
				inc.allocsPerFire / inc.rowsPerFire
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; %d rows/s over %d skewed groups; count+sum GROUP BY; %d measured fires after the window fills",
			runtime.GOMAXPROCS(0), rowsPerSec, groups, measuredFires),
		"re-exec re-aggregates every visible row per fire: latency grows with VISIBLE",
		"incremental applies insert deltas on arrival, retract deltas on slice expiry, emits from materialized state: latency flat in VISIBLE",
		"both modes' window emissions compared byte for byte before reporting")
	return t, nil
}

// ivmBatches generates one deterministic batch per simulated second. Keys
// follow a cubed-uniform skew (a few hot groups, a long tail) and values
// are small ints, so sums stay exact in both modes.
func ivmBatches(visibleSec, totalSec, rowsPerSec, groups int, base int64) [][]streamrel.Row {
	rng := rand.New(rand.NewSource(14))
	out := make([][]streamrel.Row, totalSec)
	for sec := range out {
		batch := make([]streamrel.Row, rowsPerSec)
		for i := range batch {
			ts := base + int64(sec)*1_000_000 + int64(i)*int64(1_000_000/rowsPerSec)
			k := int64(float64(groups) * math.Pow(rng.Float64(), 3))
			batch[i] = streamrel.Row{
				streamrel.Int(k),
				streamrel.Timestamp(time.UnixMicro(ts).UTC()),
				streamrel.Int(int64(rng.Intn(100))),
			}
		}
		out[sec] = batch
	}
	return out
}

type ivmResult struct {
	meanFire      time.Duration
	allocsPerFire float64
	rowsPerFire   float64
	transcript    string
}

// ivmRun feeds the batches through one engine — the automatic window state
// (a materialized store) or the StateReexec override —
// advancing the watermark one second at a time. Fires inside the first
// visibleSec seconds warm the window; the rest are measured: the
// AdvanceTime call is the fire (synchronous mode), so its wall time and
// Mallocs delta are the per-fire cost.
func ivmRun(batches [][]streamrel.Row, visibleSec int, base int64, incremental bool) (ivmResult, error) {
	var res ivmResult
	cfg := streamrel.Config{TraceSampleEvery: -1}
	if !incremental {
		cfg.StateOverride = streamrel.StateReexec
	}
	eng, err := streamrel.Open(cfg)
	if err != nil {
		return res, err
	}
	defer eng.Close()
	if _, err := eng.Exec(`CREATE STREAM s (k bigint, at timestamp CQTIME USER, v bigint)`); err != nil {
		return res, err
	}
	cq, err := eng.Subscribe(fmt.Sprintf(
		`SELECT k, count(*) AS n, sum(v) AS total FROM s <VISIBLE '%d seconds' ADVANCE '1 second'> GROUP BY k`,
		visibleSec))
	if err != nil {
		return res, err
	}
	defer cq.Close()
	if (cq.Strategy == "incremental") != incremental {
		return res, fmt.Errorf("E14: pipeline strategy = %s, want incremental:%v", cq.Strategy, incremental)
	}

	var fires int
	var total time.Duration
	var mallocs uint64
	var ms runtime.MemStats
	for sec, batch := range batches {
		if err := eng.Append("s", batch...); err != nil {
			return res, err
		}
		boundary := time.UnixMicro(base + int64(sec+1)*1_000_000).UTC()
		if sec < visibleSec {
			eng.AdvanceTime("s", boundary)
			continue
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		eng.AdvanceTime("s", boundary)
		total += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		fires++
	}
	if fires == 0 {
		return res, fmt.Errorf("E14: nothing measured")
	}

	fired := cq.Drain()
	emitted := 0
	for _, b := range fired {
		if b.Close.UnixMicro() > base+int64(visibleSec)*1_000_000 {
			emitted += len(b.Rows)
		}
	}
	res.meanFire = total / time.Duration(fires)
	res.allocsPerFire = float64(mallocs) / float64(fires)
	res.rowsPerFire = float64(emitted) / float64(fires)
	res.transcript = transcript(fired)
	return res, nil
}

// transcript renders a CQ's window fires, close then rows, for the checks
// that two configurations emitted the same windows.
func transcript(batches []streamrel.Batch) string {
	var sb strings.Builder
	for _, b := range batches {
		sb.WriteString(b.Close.UTC().Format(time.RFC3339Nano))
		for _, r := range b.Rows {
			sb.WriteByte('\n')
			sb.WriteString(r.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
