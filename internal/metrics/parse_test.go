package metrics_test

import (
	"strings"
	"testing"

	"streamrel/internal/metrics"
	"streamrel/internal/metrics/metricstest"
)

// TestParseRoundTrip: WritePrometheus output must parse back losslessly —
// every gathered counter/gauge value and every histogram _bucket/_sum/_count
// line appears as a parsed sample.
func TestParseRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("streamrel_test_events_total", "events", metrics.L("stream", "s"), metrics.L("op", "append")).Add(42)
	reg.Gauge("streamrel_test_depth", "queue depth").Set(7.5)
	h := reg.Histogram("streamrel_test_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := metricstest.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition failed to parse: %v\n%s", err, b.String())
	}
	byID := map[string]float64{}
	for i := range parsed {
		byID[parsed[i].ID()] = parsed[i].Value
	}
	want := map[string]float64{
		`streamrel_test_events_total{op="append",stream="s"}`: 42,
		`streamrel_test_depth`:                                7.5,
		`streamrel_test_lat_seconds_bucket{le="0.001"}`:       0,
		`streamrel_test_lat_seconds_bucket{le="0.01"}`:        1,
		`streamrel_test_lat_seconds_bucket{le="0.1"}`:         2,
		`streamrel_test_lat_seconds_bucket{le="+Inf"}`:        3,
		`streamrel_test_lat_seconds_count`:                    3,
		`streamrel_test_lat_seconds_sum`:                      5.055,
	}
	for id, v := range want {
		got, ok := byID[id]
		if !ok {
			t.Errorf("series %s missing from parse; have %v", id, byID)
		} else if got != v {
			t.Errorf("series %s = %v, want %v", id, got, v)
		}
	}
}

// TestParseFederatedOutput: the router's federation path (WithLabel to tag
// the shard, WriteSamples to render) must produce valid exposition with the
// shard label intact.
func TestParseFederatedOutput(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("streamrel_test_rows_total", "rows", metrics.L("stream", "s")).Add(3)
	var tagged []*metrics.Sample
	for _, s := range reg.Gather() {
		tagged = append(tagged, s.WithLabel("shard", "1"))
	}
	var b strings.Builder
	metrics.WriteSamples(&b, tagged)
	parsed, err := metricstest.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("federated exposition failed to parse: %v\n%s", err, b.String())
	}
	found := false
	for i := range parsed {
		if parsed[i].Name == "streamrel_test_rows_total" {
			found = true
			if parsed[i].Labels["shard"] != "1" || parsed[i].Labels["stream"] != "s" {
				t.Errorf("labels = %v", parsed[i].Labels)
			}
		}
	}
	if !found {
		t.Fatal("tagged series missing")
	}
}

func TestParseLabelEscapes(t *testing.T) {
	in := `streamrel_x{msg="a\"b\\c\nd"} 1` + "\n"
	parsed, err := metricstest.ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed[0].Labels["msg"]; got != "a\"b\\c\nd" {
		t.Errorf("unescaped value = %q", got)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown TYPE":       "# TYPE streamrel_x widget\nstreamrel_x 1\n",
		"duplicate TYPE":     "# TYPE streamrel_x counter\n# TYPE streamrel_x counter\n",
		"malformed TYPE":     "# TYPE streamrel_x\n",
		"bad HELP name":      "# HELP 9bad text\n",
		"no value":           "streamrel_x\n",
		"bad value":          "streamrel_x oops\n",
		"unquoted label":     "streamrel_x{a=1} 1\n",
		"duplicate label":    `streamrel_x{a="1",a="2"} 1` + "\n",
		"bad escape":         `streamrel_x{a="\t"} 1` + "\n",
		"unterminated label": `streamrel_x{a="1 1` + "\n",
		"bad separator":      `streamrel_x{a="1"b="2"} 1` + "\n",
		"bad name":           "9streamrel 1\n",
	}
	for name, in := range cases {
		if _, err := metricstest.ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want parse error for %q", name, in)
		}
	}
	// A trailing timestamp and non-HELP/TYPE comments are legal.
	ok := "# scraped by test\nstreamrel_x 1 1690000000\n"
	if _, err := metricstest.ParseExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("legal input rejected: %v", err)
	}
}
