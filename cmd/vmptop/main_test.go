package main

import (
	"testing"

	"vmp/internal/obs"
)

// TestRenderFrame pins one dashboard frame over a fixed series point
// carrying vmpd's live, WAL and runtime gauges and the live ack
// histograms. Histograms with no observations print no row.
func TestRenderFrame(t *testing.T) {
	snap := &obs.SeriesSnapshot{
		SamplesTotal: 42,
		Capacity:     600,
		Points: []obs.SeriesPoint{{
			Seq:  42,
			Time: "2016-04-01T00:00:42Z",
			Counters: map[string]int64{
				"live_ingest_records_total":       123456,
				"live_ingest_backpressured_total": 500,
				"live_ingest_rejected_total":      3,
				"live_snapshots_total":            8,
				"wal_fsync_total":                 900,
			},
			Gauges: map[string]int64{
				"live_queue_depth_batches":           5,
				"live_shard_000_queue_depth_batches": 2,
				"live_shard_001_queue_depth_batches": 3,
				"live_shard_002_queue_depth_batches": 3,
				"live_generation_epoch":              8,
				"live_generation_records":            120000,
				"live_generation_age_ms":             1500,
				"wal_backlog_segments":               2,
				"wal_backlog_bytes":                  3 << 20,
				"go_heap_alloc_bytes":                48 << 20,
				"go_heap_objects":                    250000,
				"go_goroutines":                      31,
				"go_gc_runs":                         12,
				"go_gc_pause_total_ns":               4500000,
			},
			Rates: map[string]float64{
				"live_ingest_records_total": 25000,
				"live_snapshots_total":      0.2,
				"wal_fsync_total":           40,
			},
			Hists: map[string]obs.SeriesHist{
				"live_ingest_ack_jsonl_seconds":  {Count: 200, P50: 0.0012, P90: 0.004, P99: 0.02, P999: 0.3},
				"live_ingest_ack_binary_seconds": {Count: 50, P50: 0.0004, P90: 0.0009, P99: 0.003, P999: 1.5},
				"wal_fsync_seconds":              {Count: 900, P50: 0.002, P90: 0.005, P99: 0.009, P999: 0.011},
				"live_snapshot_seconds":          {Count: 8, P50: 0.05, P90: 0.08, P99: 0.1, P999: 0.1},
				"live_query_share_seconds":       {Count: 0},
			},
		}},
	}
	const want = "vmptop  http://127.0.0.1:8474/v1/series  sample 42/42  2016-04-01T00:00:42Z\n" +
		"\n" +
		"ingest    25.0k rec/s   acked 123456   backpressured 500   rejected 3\n" +
		"queues    5 batches queued   deepest shard 001 (3)\n" +
		"epochs    epoch 8   0.20 cuts/s   generation 120000 records, age 1.5s\n" +
		"wal       2 segments, 3.0 MiB backlog   40 fsync/s\n" +
		"\n" +
		"ack jsonl   n 200      p50 1.20ms    p90 4.00ms    p99 20.00ms   p99.9 300.00ms\n" +
		"ack binary  n 50       p50 400.0µs   p90 900.0µs   p99 3.00ms    p99.9 1.50s\n" +
		"wal fsync   n 900      p50 2.00ms    p90 5.00ms    p99 9.00ms    p99.9 11.00ms\n" +
		"epoch cut   n 8        p50 50.00ms   p90 80.00ms   p99 100.00ms  p99.9 100.00ms\n" +
		"\n" +
		"runtime   heap 48.0 MiB (250000 objects)   goroutines 31   gc 12 runs, 4.5ms paused\n"
	if got := render("http://127.0.0.1:8474/v1/series", snap); got != want {
		t.Fatalf("frame differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
