package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract and match BENCHMARK.json entry for entry.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0: the
// ones a publisher or operator of the plane sees, and steady enough from
// run to run to gate a change on. The ack, freshness and query
// latencies and the saturation rate move with the host's load far more
// than that; a traced run reports them as e2e.*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayerMetrics are the metrics every workload reports with -trace 1.
// A layer the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"server.views.calls", "count"},
	{"server.views.busy_s", "s"},
	{"server.views.p50_ms", "ms"},
	{"server.views.p99_ms", "ms"},
	{"server.query.calls", "count"},
	{"server.query.p50_ms", "ms"},
	{"server.query.p99_ms", "ms"},
	{"server.stats.calls", "count"},

	{"wire.decode_binary.ns_per_record", "ns"},
	{"wire.decode_jsonl_gzip.ns_per_record", "ns"},
	{"wire.decode.allocs_per_batch", "count"},
	{"wire.body_bytes_per_record", "bytes"},

	{"ingest.batches", "count"},
	{"ingest.backpressured", "records"},
	{"ingest.self_busy_s", "s"},
	{"ingest.queue_depth_max", "batches"},

	{"wal.append.calls", "count"},
	{"wal.append.busy_s", "s"},
	{"wal.append.p50_ms", "ms"},
	{"wal.append.p99_ms", "ms"},
	{"wal.fsyncs", "count"},
	{"wal.commit.calls", "count"},
	{"wal.commit.p50_ms", "ms"},
	{"wal.commit.max_ms", "ms"},
	{"wal.checkpoint_bytes", "bytes"},
	{"wal.backlog_bytes_max", "bytes"},
	{"wal.errors", "count"},
	{"wal.replay_s", "s"},
	{"wal.replay.records_per_s", "records/s"},

	{"epoch.cuts", "count"},
	{"epoch.cut.p50_ms", "ms"},
	{"epoch.cut.max_ms", "ms"},
	{"epoch.cut_self.p50_ms", "ms"},
	{"epoch.busy_share", "ratio"},
	{"epoch.delta_records.mean", "records"},
	{"epoch.base_records", "records"},

	{"telemetry.canonical_sort.ms", "ms"},
	{"telemetry.new_dataset.ms", "ms"},
	{"telemetry.scan_jsonl.ns_per_record", "ns"},

	{"query.share.ms", "ms"},
	{"query.top_publishers.ms", "ms"},
	{"query.window.ms", "ms"},
	{"query.marshal.ms", "ms"},
	{"query.allocs_per_call", "count"},

	{"study.freeze.ms", "ms"},
	{"study.fig15_16.ms", "ms"},
	{"study.fig10.ms", "ms"},
	{"study.crosstab.ms", "ms"},
	{"study.fig18.ms", "ms"},
	{"study.fig4_8.ms", "ms"},
	{"study.other.ms", "ms"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.alloc_bytes_per_record", "bytes"},
	{"runtime.cpu_s", "s"},
	{"layers.busy_over_cpu", "ratio"},

	{"gen.late.p99_ms", "ms"},
	{"gen.sent", "count"},

	{"trace_overhead.setup_s", "ratio"},
	{"trace_overhead.ack_p50_ms", "ratio"},
	{"trace_overhead.ingest_rps", "ratio"},
	{"trace_overhead.rss_peak_mb", "ratio"},

	{"e2e.ingest_rps", "records/s"},
	{"e2e.ack_p50_ms", "ms"},
	{"e2e.ack_p90_ms", "ms"},
	{"e2e.ack_p99_ms", "ms"},
	{"e2e.visible_p50_ms", "ms"},
	{"e2e.visible_p99_ms", "ms"},
	{"e2e.query_p50_ms", "ms"},
	{"e2e.query_p99_ms", "ms"},
	{"e2e.error_rate", "ratio"},
}
