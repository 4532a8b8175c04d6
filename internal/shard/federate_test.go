package shard

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"streamrel/internal/metrics"
	"streamrel/internal/metrics/metricstest"
)

func TestFederateTagShard(t *testing.T) {
	plain := &metrics.Sample{Name: "streamrel_x_total", Kind: metrics.KindCounter, Value: 1}
	tagged := tagShard(plain, "3")
	if got := tagged.ID(); got != `streamrel_x_total{shard="3"}` {
		t.Errorf("tagged ID = %s", got)
	}
	// A series already shard-attributed (the router's own per-shard health
	// gauges) keeps its label instead of being re-tagged "router".
	own := plain.WithLabel("shard", "1")
	if got := tagShard(own, "router"); got.ID() != `streamrel_x_total{shard="1"}` {
		t.Errorf("pre-labeled series re-tagged: %s", got.ID())
	}
}

// TestFederateDownShards exercises the router's observability plane with
// every shard unreachable: /metrics must still serve the router's own
// shard="router" series flagged partial, and /readyz degrades to 503 naming both downed shards.
func TestFederateDownShards(t *testing.T) {
	r, err := NewRouter(Options{Addrs: []string{"127.0.0.1:1", "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if rec.Header().Get("X-Streamrel-Partial") != "true" {
		t.Error("/metrics not flagged partial with all shards down")
	}
	parsed, err := metricstest.ParseExposition(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, rec.Body.String())
	}
	if len(parsed) == 0 {
		t.Fatal("no router-own series in partial federation")
	}
	for i := range parsed {
		if parsed[i].Labels["shard"] == "" {
			t.Errorf("series %s has no shard label", parsed[i].ID())
		}
	}

	rec = httptest.NewRecorder()
	r.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || rec.Header().Get("X-Streamrel-Partial") != "true" {
		t.Errorf("/debug/traces status=%d partial=%q", rec.Code, rec.Header().Get("X-Streamrel-Partial"))
	}
	var traces []FedTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Errorf("/debug/traces body is not a trace list: %v", err)
	}

	rec = httptest.NewRecorder()
	r.ReadyzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz status = %d, want 503", rec.Code)
	}
	var st probeStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "degraded" || st.Up != 0 || st.Total != 2 || len(st.Down) != 2 {
		t.Errorf("readyz body = %+v", st)
	}
}
