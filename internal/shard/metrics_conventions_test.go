package shard

import (
	"testing"

	"streamrel/internal/metrics/metricstest"
)

// TestRouterMetricNamingConventions audits the router's registry — a
// separate registry from any engine's — under the repo-wide naming
// rules (metricstest.Audit; the engine-side counterpart lives in
// metrics_conventions_test.go at the repo root), and spot-checks the
// streamrel_router_* namespace.
func TestRouterMetricNamingConventions(t *testing.T) {
	// The address never answers; series register at construction.
	r, err := NewRouter(Options{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	byName := metricstest.Audit(t, r.Metrics().Gather())
	for _, name := range []string{
		"streamrel_router_append_rows_total",
		"streamrel_router_append_seconds",
		"streamrel_router_partial_results_total",
		"streamrel_router_scatter_seconds",
		"streamrel_router_routed_rows_total",
		"streamrel_router_send_seconds",
		"streamrel_router_coalesced_batches",
		"streamrel_router_shard_errors_total",
		"streamrel_router_reconnects_total",
		"streamrel_router_shard_up",
		"streamrel_router_queue_depth",
		"streamrel_server_connections",
		"streamrel_server_command_seconds",
		"streamrel_server_command_errors_total",
	} {
		if byName[name] == nil {
			t.Errorf("expected router series %s not registered", name)
		}
	}
}
