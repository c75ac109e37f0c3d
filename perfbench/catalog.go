package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload. On serve-* a sample is one interval's
// counters answered by a prediction; on sweep-zoo it is one governed
// interval simulated, and the request whose round trip rtt_* times is
// a whole leaderboard. leaderboard_s is, on serve-*, the time to serve
// one session's whole trace (input to complete answer stream).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"rtt_p50_us", "us", "lower"},
	{"rtt_p90_us", "us", "lower"},
	{"cpu_us_per_sample", "us", "lower"},
	{"leaderboard_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named <layer>.<metric>. A
// metric that does not apply to a workload (the serving layers on
// sweep-zoo, fleet and tournament on serve-*) reads 0 there.
func perLayer() []metricDef {
	m := []metricDef{
		{"phaseclient.send_ns_p50", "ns", "lower"},
		{"phaseclient.recv_wait_us_p50", "us", "lower"},
		{"phaseclient.open_ms_p50", "ms", "lower"},
		{"wire.batch_encode_ns_per_sample", "ns", "lower"},
		{"wire.batch_decode_ns_per_sample", "ns", "lower"},
		{"wire.frame_encode_ns", "ns", "lower"},
		{"wire.frame_decode_ns", "ns", "lower"},
		{"wire.bytes_per_sample_in", "B", "lower"},
		{"wire.bytes_per_sample_out", "B", "lower"},
		{"phased.frames_in_per_sample", "ratio", "lower"},
		{"phased.frames_out_per_sample", "ratio", "lower"},
		{"phased.predictions_per_flush", "count", "higher"},
		{"phased.flush_us_p50", "us", "lower"},
		{"phased.step_write_us_p50", "us", "lower"},
		{"phased.step_write_us_p99", "us", "lower"},
		{"phased.dropped_samples", "count", "lower"},
		{"phased.protocol_errors", "count", "lower"},
		{"phased.shutdown_ms", "ms", "lower"},
		{"agg.ingest_ns", "ns", "lower"},
		{"agg.ingested_per_sample", "ratio", "lower"},
		{"agg.late_samples", "count", "lower"},
		{"agg.buckets_dropped", "count", "lower"},
	}
	for _, s := range coreSpecs() {
		m = append(m, metricDef{"core.observe_ns." + s, "ns", "lower"}, metricDef{"core.monitor_step_ns." + s, "ns", "lower"})
	}
	m = append(m,
		metricDef{"core.gpht_hit_ratio", "ratio", "higher"},
		metricDef{"core.mispredict_ratio", "ratio", "lower"},
	)
	for _, s := range append([]string{"baseline"}, coreSpecs()...) {
		m = append(m, metricDef{"governor.run_ns_per_interval." + s, "ns", "lower"})
	}
	m = append(m,
		metricDef{"governor.pmi_budget_violations", "count", "lower"},
		metricDef{"wcache.materialize_ms", "ms", "lower"},
		metricDef{"wcache.hit_ratio", "ratio", "higher"},
		metricDef{"fleet.run_ms_p50", "ms", "lower"},
		metricDef{"fleet.run_ms_p99", "ms", "lower"},
		metricDef{"fleet.busy_frac", "ratio", "higher"},
		metricDef{"fleet.runs_failed", "count", "lower"},
		metricDef{"tournament.overhead_ms", "ms", "lower"},
		metricDef{"tournament.cells", "count", "higher"},
		metricDef{"loadgen.rtt_p99_us", "us", "lower"},
		metricDef{"loadgen.rtt_p999_us", "us", "lower"},
		metricDef{"loadgen.sent", "count", "higher"},
		metricDef{"loadgen.answered", "count", "higher"},
		metricDef{"loadgen.fail_frac", "ratio", "lower"},
		metricDef{"process.cpu_util", "ratio", "higher"},
		metricDef{"process.allocs_per_sample", "count", "lower"},
		metricDef{"process.allocs_per_interval", "count", "lower"},
		metricDef{"process.gc_cycles", "count", "lower"},
		metricDef{"ladder.observe_ns", "ns", "lower"},
		metricDef{"ladder.monitor_step_ns", "ns", "lower"},
		metricDef{"ladder.monitor_step_delta_ns", "ns", "lower"},
		metricDef{"ladder.agg_ingest_ns", "ns", "lower"},
		metricDef{"ladder.agg_ingest_delta_ns", "ns", "lower"},
		metricDef{"ladder.wire_ns", "ns", "lower"},
		metricDef{"ladder.wire_delta_ns", "ns", "lower"},
		metricDef{"ladder.loopback_ns", "ns", "lower"},
		metricDef{"ladder.loopback_delta_ns", "ns", "lower"},
	)
	for _, e := range endToEnd {
		m = append(m, metricDef{"trace.overhead_frac." + e.name, "ratio", "lower"})
	}
	return m
}
