package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"vmp"
	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// perLayer assembles the traced run's per-layer metrics: what the
// in-process plane recorded during the timed phase, plus quiescent
// measurements taken after it over the run's own inputs and final
// generation, plus the tracing overhead against the untraced pass.
func perLayer(e *env, plain, tr *runOutput, ip *inproc) (map[string]float64, error) {
	m := map[string]float64{}
	l := &ip.layers

	views, queries := sorted(l.handler["views"]), sorted(l.handler["query"])
	if len(queries) == 0 {
		// No query runs inside ingest_durable's window: time the ones
		// its output check makes right after it.
		queries = sorted(ip.after["query"])
	}
	m["server.views.calls"] = float64(len(views))
	m["server.views.busy_s"] = sum(views) / 1e3
	m["server.views.p50_ms"] = quantile(views, 0.5)
	m["server.views.p99_ms"] = quantile(views, 0.99)
	m["server.query.calls"] = float64(len(queries))
	m["server.query.p50_ms"] = quantile(queries, 0.5)
	m["server.query.p99_ms"] = quantile(queries, 0.99)
	m["server.stats.calls"] = float64(len(l.handler["stats"]))

	if err := wireLayer(m, tr.bodies); err != nil {
		return nil, err
	}

	appends := sorted(l.appends)
	decodeS := 0.0
	for _, b := range tr.bodies {
		if b.ctype == wire.ContentTypeBinary {
			decodeS += m["wire.decode_binary.ns_per_record"] * float64(len(b.batch)) / 1e9
		} else {
			decodeS += m["wire.decode_jsonl_gzip.ns_per_record"] * float64(len(b.batch)) / 1e9
		}
	}
	m["ingest.batches"] = float64(len(views))
	m["ingest.backpressured"] = float64(l.backpressured)
	m["ingest.self_busy_s"] = max(0, m["server.views.busy_s"]-sum(appends)/1e3-decodeS)
	m["ingest.queue_depth_max"] = float64(l.queueDepthMax)

	cuts, commits := l.cuts, l.commits
	if len(cuts) == 0 {
		// No cut runs inside that window either: time the one its
		// output check makes.
		cuts, commits = ip.checkCut()
	}
	commits = sorted(commits)
	m["wal.append.calls"] = float64(len(appends))
	m["wal.append.busy_s"] = sum(appends) / 1e3
	m["wal.append.p50_ms"] = quantile(appends, 0.5)
	m["wal.append.p99_ms"] = quantile(appends, 0.99)
	m["wal.fsyncs"] = float64(l.fsyncs)
	m["wal.commit.calls"] = float64(len(commits))
	m["wal.commit.p50_ms"] = quantile(commits, 0.5)
	m["wal.commit.max_ms"] = maxOf(commits)
	m["wal.checkpoint_bytes"] = float64(ip.ckptBytes)
	m["wal.backlog_bytes_max"] = float64(l.backlogBytesMax)
	m["wal.errors"] = float64(l.walErrors) + float64(ip.reg.Counter("wal_errors_total").Load())
	m["wal.replay_s"] = ip.replay.Seconds()
	if ip.loaded > 0 {
		m["wal.replay.records_per_s"] = float64(ip.loaded) / ip.replay.Seconds()
	}

	var cutMS, selfMS []float64
	delta := 0
	for _, c := range cuts {
		cutMS = append(cutMS, c.totalMS)
		selfMS = append(selfMS, c.totalMS-c.commitMS)
		delta += c.delta
	}
	slices.Sort(cutMS)
	m["epoch.cuts"] = float64(len(cuts))
	m["epoch.cut.p50_ms"] = quantile(cutMS, 0.5)
	m["epoch.cut.max_ms"] = maxOf(cutMS)
	m["epoch.cut_self.p50_ms"] = median(selfMS)
	windowCutMS := 0.0
	for _, c := range l.cuts {
		windowCutMS += c.totalMS
	}
	m["epoch.busy_share"] = windowCutMS / ms(l.wall)
	if n := len(cuts); n > 0 {
		m["epoch.delta_records.mean"] = float64(delta) / float64(n)
		m["epoch.base_records"] = float64(cuts[n-1].base)
	}

	final := ip.final.Dataset.All()
	if err := telemetryLayer(e, m, final, tr); err != nil {
		return nil, err
	}
	if err := queryLayer(m, ip.final.Dataset, tr.windowAt); err != nil {
		return nil, err
	}
	if err := studyLayer(e, m, final, tr.stride); err != nil {
		return nil, err
	}

	rb, ra := l.rtBefore, l.rtAfter
	d := func(k string) float64 { return ra[k] - rb[k] }
	m["runtime.gc_cycles"] = d("/gc/cycles/total:gc-cycles")
	if cpu := d("/cpu/classes/total:cpu-seconds"); cpu > 0 {
		m["runtime.gc_cpu_share"] = d("/cpu/classes/gc/total:cpu-seconds") / cpu
	}
	m["runtime.heap_peak_mb"] = l.heapPeakBytes / (1 << 20)
	if n := records(tr.bodies); n > 0 {
		m["runtime.alloc_bytes_per_record"] = d("/gc/heap/allocs:bytes") / float64(n)
	}
	m["runtime.cpu_s"] = l.cpuS
	if l.cpuS > 0 {
		busy := windowCutMS + sum(views) + sum(l.handler["query"]) + sum(l.handler["stats"])
		m["layers.busy_over_cpu"] = busy / 1e3 / l.cpuS
	}

	m["gen.late.p99_ms"] = tr.late.P99
	m["gen.sent"] = float64(tr.late.N)

	for name, base := range plain.e2e {
		if base != 0 {
			m["trace_overhead."+name] = tr.e2e[name] / base
		}
	}
	m["e2e.ingest_rps"] = plain.e2e["ingest_rps"]
	m["e2e.ack_p50_ms"] = plain.ack.P50
	m["e2e.ack_p90_ms"] = plain.ack.P90
	m["e2e.ack_p99_ms"] = plain.ack.P99
	m["e2e.visible_p50_ms"] = plain.visible.P50
	m["e2e.visible_p99_ms"] = plain.visible.P99
	m["e2e.query_p50_ms"] = plain.query.P50
	m["e2e.query_p99_ms"] = plain.query.P99
	m["e2e.error_rate"] = float64(plain.failed) / float64(max(1, plain.attempted))
	return m, nil
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

// checkpointBytes sums the sizes of the checkpoint files in a WAL
// directory.
func checkpointBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wireSample caps the records the wire pass decodes, so that decoding
// them as JSON lines, twice, takes a second or two.
const wireSample = 50000

// wireLayer times wire.DecodeBody, quiescent, over a prefix of the
// run's own ingest batches in both wire encodings, so each decoder is
// measured on every workload; each set is decoded once to warm the
// decoder and once timed. Allocations are counted over the run's own
// bodies.
func wireLayer(m map[string]float64, bodies []request) error {
	n, taken := 0, 0
	for n < len(bodies) && taken < wireSample {
		taken += len(bodies[n].batch)
		n++
	}
	own := bodies[:n]
	enc := wire.NewEncoder()
	var bin, jsonl []request
	for _, b := range own {
		r, err := binaryBody(enc, b.batch)
		if err != nil {
			return err
		}
		bin = append(bin, r)
		if r, err = jsonlGzipBody(b.batch); err != nil {
			return err
		}
		jsonl = append(jsonl, r)
	}
	dec := wire.NewDecoder()
	for _, set := range []struct {
		metric string
		reqs   []request
	}{
		{"wire.decode_binary.ns_per_record", bin},
		{"wire.decode_jsonl_gzip.ns_per_record", jsonl},
	} {
		if _, err := decodeAll(dec, set.reqs); err != nil {
			return err
		}
		elapsed, err := decodeAll(dec, set.reqs)
		if err != nil {
			return err
		}
		if k := records(set.reqs); k > 0 {
			m[set.metric] = float64(elapsed.Nanoseconds()) / float64(k)
		}
	}
	before := mallocs()
	if _, err := decodeAll(dec, own); err != nil {
		return err
	}
	if n > 0 {
		m["wire.decode.allocs_per_batch"] = float64(mallocs()-before) / float64(n)
	}
	bodyBytes := 0
	for _, b := range bodies {
		bodyBytes += len(b.body)
	}
	if k := records(bodies); k > 0 {
		m["wire.body_bytes_per_record"] = float64(bodyBytes) / float64(k)
	}
	return nil
}

// decodeAll decodes every body in reqs with wire.DecodeBody and
// returns the time it took.
func decodeAll(dec *wire.Decoder, reqs []request) (time.Duration, error) {
	clk := simclock.Wall()
	start := clk.Now()
	for i := range reqs {
		b := &reqs[i]
		hdr := http.Header{"Content-Type": {b.ctype}}
		if b.cenc != "" {
			hdr.Set("Content-Encoding", b.cenc)
		}
		got, _, _, err := wire.DecodeBody(hdr, bytes.NewReader(b.body), dec)
		if err != nil {
			return 0, err
		}
		if len(got) != len(b.batch) {
			return 0, fmt.Errorf("decoded %d records from a body of %d", len(got), len(b.batch))
		}
	}
	return clk.Now().Sub(start), nil
}

// records counts the records reqs carry.
func records(reqs []request) int {
	n := 0
	for _, r := range reqs {
		n += len(r.batch)
	}
	return n
}

// telemetryLayer times the cut's sort and freeze over the final
// generation plus one epoch's delta, and the JSONL scan over the
// workload's slice file, all quiescent.
func telemetryLayer(e *env, m map[string]float64, final []telemetry.ViewRecord, tr *runOutput) error {
	clk := e.clk
	recs := append(slices.Clone(final), tr.delta...)
	start := clk.Now()
	telemetry.CanonicalSort(recs)
	m["telemetry.canonical_sort.ms"] = ms(clk.Now().Sub(start))
	start = clk.Now()
	telemetry.NewDataset(recs)
	m["telemetry.new_dataset.ms"] = ms(clk.Now().Sub(start))

	f, err := os.Open(tr.slicePath)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side
	start = clk.Now()
	got, _, err := telemetry.ScanJSONL(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	if len(got) > 0 {
		m["telemetry.scan_jsonl.ns_per_record"] = float64(clk.Now().Sub(start).Nanoseconds()) / float64(len(got))
	}
	return nil
}

// queryLayer times the query functions the server calls, on the final
// generation, quiescent: each one three times, reporting the median.
func queryLayer(m map[string]float64, ds *telemetry.Dataset, windowAt time.Time) error {
	if windowAt.IsZero() && ds.Len() > 0 {
		windowAt = ds.Record(ds.Len() - 1).Timestamp.UTC().Truncate(24 * time.Hour).Add(-24 * time.Hour)
	}
	clk := simclock.Wall()
	timeIt := func(f func() error) (float64, error) {
		var runs []float64
		for i := 0; i < 3; i++ {
			start := clk.Now()
			if err := f(); err != nil {
				return 0, err
			}
			runs = append(runs, ms(clk.Now().Sub(start)))
		}
		return median(runs), nil
	}
	var responses []any
	before := mallocs()
	calls := 0
	var shareMS []float64
	for _, dim := range []string{"protocol", "platform", "cdn"} {
		for _, by := range []string{"viewhours", "views"} {
			t, err := timeIt(func() error {
				r, err := live.ShareOver(ds, dim, by)
				if err == nil {
					responses = append(responses, r)
				}
				return err
			})
			if err != nil {
				return err
			}
			shareMS = append(shareMS, t)
		}
	}
	m["query.share.ms"] = sum(shareMS) / float64(len(shareMS))
	var err error
	if m["query.top_publishers.ms"], err = timeIt(func() error {
		responses = append(responses, live.TopPublishersOver(ds, 10))
		return nil
	}); err != nil {
		return err
	}
	if m["query.window.ms"], err = timeIt(func() error {
		responses = append(responses, live.WindowOver(ds, windowAt, 2))
		return nil
	}); err != nil {
		return err
	}
	calls = len(responses)
	var marshalMS []float64
	for _, r := range responses {
		start := clk.Now()
		if _, err := live.MarshalResponse(r); err != nil {
			return err
		}
		marshalMS = append(marshalMS, ms(clk.Now().Sub(start)))
	}
	m["query.marshal.ms"] = median(marshalMS)
	m["query.allocs_per_call"] = float64(mallocs()-before) / float64(calls)
	return nil
}

// studyGroups splits the study's figures into the groups the per-layer
// report times; every figure not named lands in study.other.
var studyGroups = []struct {
	metric string
	ids    []string
}{
	{"study.fig15_16.ms", []string{"15", "16"}},
	{"study.fig10.ms", []string{"10a", "10b", "10c"}},
	{"study.crosstab.ms", []string{"crosstab"}},
	{"study.fig18.ms", []string{"18"}},
	{"study.fig4_8.ms", []string{"4", "8"}},
}

// studyQoESessions caps the Fig 15/16 playback sessions so the study
// stays a few seconds long.
const studyQoESessions = 20

// studyLayer runs the paper's figures over the plane's final record set
// through the public vmp API, timing the dataset freeze and each
// figure group.
func studyLayer(e *env, m map[string]float64, final []telemetry.ViewRecord, stride int) error {
	store := telemetry.NewStore()
	store.Append(final...)
	s := vmp.NewFromStore(vmp.Config{Seed: e.seed, SnapshotStride: stride, QoESessions: studyQoESessions}, store)
	clk := e.clk
	start := clk.Now()
	s.Dataset()
	m["study.freeze.ms"] = ms(clk.Now().Sub(start))
	named := map[string]bool{}
	render := func(ids []string) (float64, error) {
		start := clk.Now()
		for _, id := range ids {
			named[id] = true
			if err := s.Render(io.Discard, id); err != nil {
				return 0, err
			}
		}
		return ms(clk.Now().Sub(start)), nil
	}
	for _, g := range studyGroups {
		t, err := render(g.ids)
		if err != nil {
			return err
		}
		m[g.metric] = t
	}
	var rest []string
	for _, id := range vmp.Figures {
		if !named[id] {
			rest = append(rest, id)
		}
	}
	t, err := render(rest)
	m["study.other.ms"] = t
	return err
}
