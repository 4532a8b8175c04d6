package streamrel

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/metrics/metricstest"
	"streamrel/internal/trace"
)

// TestTracingScrapeUnderIngest hammers the two observability HTTP
// endpoints — /metrics (registry gather + Prometheus render) and
// /debug/traces (trace ring snapshot) — while parallel ingest, window
// fires, tracing and the sysmon ticker all mutate the state being scraped.
// Run under -race (the CI observability lane does) this proves a scrape is
// safe at any moment; every /metrics body must also parse as valid
// exposition.
func TestTracingScrapeUnderIngest(t *testing.T) {
	e, err := Open(Config{
		ParallelCQ:       4,
		TraceSampleEvery: 1,
		SysMonInterval:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <VISIBLE 100 ROWS ADVANCE 50 ROWS>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	go func() {
		for {
			if _, ok := cq.Next(); !ok {
				return
			}
		}
	}()

	metricsSrv := httptest.NewServer(metrics.Handler(e.Metrics()))
	defer metricsSrv.Close()
	tracesSrv := httptest.NewServer(trace.Handler(e.Tracer()))
	defer tracesSrv.Close()

	const (
		ingesters = 4
		scrapers  = 2
		rowsEach  = 300
	)
	base := MustTimestamp("2009-01-04 00:00:00")
	errs := make(chan error, ingesters+2*scrapers)
	var ingestDone atomic.Bool

	var ingestWG sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		ingestWG.Add(1)
		go func(g int) {
			defer ingestWG.Done()
			// All rows share one timestamp: streams are ordered on CQTIME,
			// and the row window above advances on counts, not time.
			for i := 0; i < rowsEach; i++ {
				if err := e.Append("s", Row{Int(int64(i)), Timestamp(base)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// Scrapers run until ingest completes, so scrapes overlap the whole
	// ingest window.
	var scrapeWG sync.WaitGroup
	scrape := func(url string, validate func(string) error) {
		defer scrapeWG.Done()
		client := metricsSrv.Client()
		for !ingestDone.Load() {
			resp, err := client.Get(url)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if err := validate(string(body)); err != nil {
				errs <- err
				return
			}
		}
	}
	for g := 0; g < scrapers; g++ {
		scrapeWG.Add(2)
		go scrape(metricsSrv.URL, func(body string) error {
			_, err := metricstest.ParseExposition(strings.NewReader(body))
			return err
		})
		go scrape(tracesSrv.URL, func(string) error { return nil })
	}

	ingestWG.Wait()
	ingestDone.Store(true)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A final scrape must still be valid and carry the ingest totals.
	resp, err := metricsSrv.Client().Get(metricsSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	parsed, err := metricstest.ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var rows float64
	for i := range parsed {
		if parsed[i].Name == "streamrel_stream_rows_total" && parsed[i].Labels["stream"] == "s" {
			rows = parsed[i].Value
		}
	}
	if want := float64(ingesters * rowsEach); rows != want {
		t.Errorf("streamrel_stream_rows_total{stream=s} = %v, want %v", rows, want)
	}
}
