// Package metricstest holds what only tests use of metrics: the repo-wide
// naming rules, so that every registry (an engine's, the shard router's) is
// audited against one rule table, and a parser of the text exposition.
package metricstest

import (
	"strings"
	"testing"

	"streamrel/internal/metrics"
)

// Audit applies the naming rules to one registry's gather — streamrel_
// prefix, _total suffix on counters and never on gauges, a unit suffix on
// histograms — and returns the samples by name for spot checks.
func Audit(t testing.TB, samples []*metrics.Sample) map[string]*metrics.Sample {
	t.Helper()
	byName := make(map[string]*metrics.Sample, len(samples))
	for _, s := range samples {
		byName[s.Name] = s
		if !strings.HasPrefix(s.Name, "streamrel_") {
			t.Errorf("metric %q lacks the streamrel_ prefix", s.Name)
		}
		switch s.Kind {
		case metrics.KindCounter:
			if !strings.HasSuffix(s.Name, "_total") {
				t.Errorf("counter %q should end in _total", s.Name)
			}
		case metrics.KindHistogram:
			if !strings.HasSuffix(s.Name, "_seconds") && !strings.HasSuffix(s.Name, "_batches") {
				t.Errorf("histogram %q should end in a unit suffix (_seconds, _batches)", s.Name)
			}
		case metrics.KindGauge:
			if strings.HasSuffix(s.Name, "_total") {
				t.Errorf("gauge %q must not end in _total", s.Name)
			}
		}
	}
	return byName
}
