package main

// metricSpec is one metric of the benchmark's contract. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// spec_test.go keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a --trace 0 run reports for every workload, each
// with the share of the parent's median by which it may worsen before a
// change counts as a regression. Only metrics that are steady on the shared
// reference box carry a bound: there the wall-clock metrics' same-code
// spread is 30-400 % (README.md, "Reference box"), wider than any bound the
// contract allows, so throughput and latency are reported per layer and
// judged by -compare against the advisory bounds below.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_row", "count", "lower", 0.03},
	{"alloc_bytes_per_row", "bytes", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// advisory are the bounds ISSUE 12 set for the wall-clock metrics. -compare
// prints a verdict against them — unresolved where the same-code spread is
// wider — but they reject nothing.
var advisory = []metricSpec{
	{"rows_per_s", "1/s", "higher", 0.08},
	{"append_ack_p50_ms", "ms", "lower", 0.10},
	{"append_ack_p99_ms", "ms", "lower", 0.20},
	{"delivery_p50_ms", "ms", "lower", 0.10},
	{"delivery_p95_ms", "ms", "lower", 0.20},
	{"query_p50_ms", "ms", "lower", 0.10},
	{"query_p99_ms", "ms", "lower", 0.20},
	{"queries_per_s", "1/s", "higher", 0.08},
}

// perLayer are the metrics a --trace 1 run reports. They carry no bound:
// they explain a movement, they do not judge one.
var perLayer = []metricSpec{
	// What a user of the engine sees, on the wall clock (see endToEnd).
	{Name: "rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "append_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "delivery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "delivery_p95_ms", Unit: "ms", Better: "lower"},
	// The reader of report_mixed (0 on the streaming workloads).
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
	// client
	{Name: "client.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "client.encode_allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "client.wire_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "client.decode_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "client.append_rtt_self_ns_per_row", Unit: "ns", Better: "lower"},
	// server
	{Name: "server.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "server.decode_allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "server.encode_result_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "server.encode_result_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "server.cmd_append_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cmd_query_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cmd_errors", Unit: "count", Better: "lower"},
	// sql + plan
	{Name: "plan.explain_ns_per_stmt", Unit: "ns", Better: "lower"},
	// exec
	{Name: "exec.query_ns_per_row_scanned", Unit: "ns", Better: "lower"},
	{Name: "exec.fire_reexec_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "exec.fire_reexec_ns_per_window_row", Unit: "ns", Better: "lower"},
	// stream
	{Name: "stream.ingest_self_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "stream.enqueue_wait_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "stream.pickup_wait_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "stream.fire_shared_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "stream.deliver_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "stream.rows_in", Unit: "count", Better: "lower"},
	{Name: "stream.rows_out", Unit: "count", Better: "lower"},
	{Name: "stream.fires", Unit: "count", Better: "lower"},
	{Name: "stream.late_rows", Unit: "count", Better: "lower"},
	{Name: "stream.pipelines", Unit: "count", Better: "lower"},
	{Name: "stream.plan_groups", Unit: "count", Better: "lower"},
	{Name: "stream.plan_subscribers", Unit: "count", Better: "higher"},
	{Name: "stream.share_ratio", Unit: "ratio", Better: "higher"},
	{Name: "stream.sched_steals", Unit: "count", Better: "lower"},
	{Name: "stream.sched_parks", Unit: "count", Better: "lower"},
	{Name: "stream.queue_depth_max", Unit: "count", Better: "lower"},
	// ivm
	{Name: "ivm.maintain_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ivm.fire_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "ivm.fire_ns_per_group", Unit: "ns", Better: "lower"},
	{Name: "ivm.state_groups", Unit: "count", Better: "lower"},
	{Name: "ivm.state_slices", Unit: "count", Better: "lower"},
	{Name: "ivm.groups_touched", Unit: "count", Better: "lower"},
	// txn + storage
	{Name: "txn.archive_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "txn.archive_allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "storage.lookup_ns", Unit: "ns", Better: "lower"},
	// wal
	{Name: "wal.append_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wal.fsync_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.group_batches_mean", Unit: "count", Better: "higher"},
	// repl
	{Name: "repl.publish_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "repl.frame_encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "repl.frame_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "repl.frame_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "repl.overflows", Unit: "count", Better: "lower"},
	// replica
	{Name: "replica.apply_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "replica.apply_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.apply_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.drain_ms", Unit: "ms", Better: "lower"},
	// shard
	{Name: "shard.split_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "shard.merge_ns_per_row", Unit: "ns", Better: "lower"},
	// trace
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_recorded", Unit: "count", Better: "lower"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
	// gen
	{Name: "gen.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.backlog_rows_end", Unit: "count", Better: "lower"},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadJS `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workloadJS struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}
