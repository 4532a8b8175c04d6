package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "help a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same identity returns the same handle.
	if r.Counter("a_total", "") != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	// Distinct labels are distinct series.
	c2 := r.Counter("b_total", "", L("k", "v1"))
	c3 := r.Counter("b_total", "", L("k", "v2"))
	if c2 == c3 {
		t.Fatalf("distinct labels shared a series")
	}

	g := r.Gauge("g", "help g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	r.GaugeFunc("f", "", func() float64 { return 1 })()
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry gathered %v", got)
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("WritePrometheus on nil registry: %v", err)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for i := 0; i < 50; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05) // second bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // +Inf bucket
	}
	samples := r.Gather()
	if len(samples) != 1 {
		t.Fatalf("gathered %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 50*0.005 + 40*0.05 + 10*5.0
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	wantCum := []int64{50, 90, 90, 100}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	// p50 lands inside the first bucket (rank 50 of 50 there).
	if q := s.Quantile(0.50); q <= 0 || q > 0.01 {
		t.Fatalf("p50 = %g, want within (0, 0.01]", q)
	}
	// p95 lands in the +Inf bucket and clamps to the last finite bound.
	if q := s.Quantile(0.95); q != 1 {
		t.Fatalf("p95 = %g, want clamp to 1", q)
	}
	if q := (&Sample{Kind: KindHistogram}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %g, want NaN", q)
	}
}

func TestGaugeFuncAndUnregister(t *testing.T) {
	r := NewRegistry()
	depth := 7
	unreg := r.GaugeFunc("queue_depth", "queued tasks", func() float64 { return float64(depth) },
		L("pipe", "1"))
	got := r.Gather()
	if len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("gauge func gathered %+v", got)
	}
	unreg()
	if got := r.Gather(); len(got) != 0 {
		t.Fatalf("after unregister gathered %d samples", len(got))
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestPrometheusGolden pins the full text exposition format.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_rows_total", "rows ingested", L("stream", "s1")).Add(12)
	r.Counter("app_rows_total", "rows ingested", L("stream", "s2")).Add(3)
	r.Gauge("app_connections", "open connections").Set(2)
	h := r.Histogram("app_fsync_seconds", "fsync latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP app_connections open connections`,
		`# TYPE app_connections gauge`,
		`app_connections 2`,
		`# HELP app_fsync_seconds fsync latency`,
		`# TYPE app_fsync_seconds histogram`,
		`app_fsync_seconds_bucket{le="0.001"} 2`,
		`app_fsync_seconds_bucket{le="0.01"} 2`,
		`app_fsync_seconds_bucket{le="+Inf"} 3`,
		`app_fsync_seconds_sum 0.501`,
		`app_fsync_seconds_count 3`,
		`# HELP app_rows_total rows ingested`,
		`# TYPE app_rows_total counter`,
		`app_rows_total{stream="s1"} 12`,
		`app_rows_total{stream="s2"} 3`,
		``,
	}, "\n")
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("body missing counter:\n%s", body)
	}
}

// TestConcurrentObserveAndGather races writers against snapshotters; run
// under -race it checks the lock-free hot path, and it verifies no
// observations are lost.
func TestConcurrentObserveAndGather(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 5000
	c := r.Counter("ops_total", "")
	h := r.Histogram("lat_seconds", "", nil)
	g := r.Gauge("depth", "")

	var writers sync.WaitGroup
	stop := make(chan struct{})
	snapshotterDone := make(chan struct{})
	// Snapshot continuously while writers hammer the metrics.
	go func() {
		defer close(snapshotterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range r.Gather() {
				if s.Kind == KindHistogram {
					// Cumulative buckets must be monotone in any snapshot.
					last := int64(0)
					for _, b := range s.Buckets {
						if b.Count < last {
							t.Errorf("non-monotone cumulative buckets: %v", s.Buckets)
							return
						}
						last = b.Count
					}
				}
			}
			_ = r.Counter("ops_total", "") // concurrent get-or-create
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	<-snapshotterDone

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %g, want 0", got)
	}
}

// TestFlatten pins the one flattening rule: a counter or gauge is one row,
// a histogram five, labels ride beside the suffixed name, and a non-finite
// value — an empty histogram's quantiles, a NaN gauge — is no row at all.
func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", L("stream", "s")).Add(3)
	r.Gauge("g_nan", "g").Set(math.NaN())
	r.Histogram("h_empty_seconds", "h", []float64{1, 2})
	r.Histogram("h_seconds", "h", []float64{1, 2}).Observe(0.5)

	var got []string
	for _, p := range Flatten(r.Gather()) {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			t.Errorf("non-finite row %+v", p)
		}
		got = append(got, p.Name+p.Labels+" "+p.Kind.String())
	}
	want := []string{
		`c_total{stream="s"} counter`,
		"h_empty_seconds_count histogram", "h_empty_seconds_sum histogram",
		"h_seconds_count histogram", "h_seconds_sum histogram",
		"h_seconds_p50 histogram", "h_seconds_p95 histogram", "h_seconds_p99 histogram",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Flatten =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
