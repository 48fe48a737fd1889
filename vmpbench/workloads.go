package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// plane is the system under test: vmpd as a process, or in traced runs
// the same engine, server and WAL in the benchmark's own process.
type plane interface {
	base() string
	quiesce()                             // before the timed phase: settle the harness's own heap
	beginTimed() error                    // start of the timed phase: reset peak RSS and layer timers
	endTimed() (rssMB float64, err error) // end of the timed phase: peak RSS since beginTimed
	stop() error
}

// booter starts a plane over walDir; k numbers the boots of one run.
type booter func(ctx context.Context, walDir string, k int) (plane, time.Duration, error)

// workload is one traffic mix. Its run function builds the inputs from
// the seed, boots the plane through boot, drives it, checks its
// answers, and reports what it measured. A traced pass runs the same
// open-loop window but only tracedSats of the closed-loop boots and
// none of the boots that only time set-up: it is there for the layers,
// and a full repeat would make a traced run twice as long.
type workload struct {
	name   string
	policy string        // -wal-fsync
	epoch  time.Duration // cut cadence; 0 = only when asked
	run    func(ctx context.Context, e *env, boot booter, traced bool) (*runOutput, error)
}

var workloads = map[string]workload{
	"ingest_durable": {
		name:   "ingest_durable",
		policy: "batch",
		run:    ingestDurable,
	},
	"serve_history": {
		name:   "serve_history",
		policy: "interval",
		epoch:  time.Second,
		run:    serveHistory,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// vmpdBooter boots the real binary with the workload's WAL policy and
// epoch, and with tracing off.
func vmpdBooter(e *env, w workload) booter {
	epoch := "24h" // longer than any run: the plane cuts only when asked
	if w.epoch > 0 {
		epoch = w.epoch.String()
	}
	return func(ctx context.Context, walDir string, k int) (plane, time.Duration, error) {
		args := []string{"-wal-dir", walDir, "-wal-fsync", w.policy, "-epoch", epoch, "-trace-depth", "0"}
		d, setup, err := startVMPD(ctx, e.clk, e.bin("vmpd"), filepath.Join(e.workDir, fmt.Sprintf("vmpd-%d.log", k)), args...)
		if err != nil {
			return nil, 0, err
		}
		return d, setup, nil
	}
}

// runOutput is what one pass of a workload measured.
type runOutput struct {
	correct           bool
	checks            []string // what was verified, or why it failed
	attempted, failed int
	failures          map[string]int // failed requests by path and cause

	e2e     map[string]float64 // the gated end-to-end metrics and the ack median
	setups  []float64          // every boot's set-up time, s
	ack     latency
	visible latency
	query   latency
	late    latency // generator hand-off lateness
	valid   bool    // the generator kept to its schedule

	rssMB    []float64 // peak RSS of each open-loop plane
	satRates []float64 // each closed-loop phase, acknowledged records/s

	// Inputs the traced run's quiescent layer measurements reuse.
	slicePath string
	bodies    []request              // the open-loop window's ingest bodies
	delta     []telemetry.ViewRecord // one epoch's worth of new records
	final     []telemetry.ViewRecord // every record the plane should hold at the end
	windowAt  time.Time              // start of the window query
	stride    int
}

// summary is the run record's view of a pass.
func (o *runOutput) summary() map[string]any {
	return map[string]any{
		"correct": o.correct, "checks": o.checks, "valid": o.valid,
		"attempted": o.attempted, "failed": o.failed, "failures": o.failures,
		"e2e": o.e2e, "setup_s_each": o.setups, "ingest_rps_each": o.satRates, "rss_peak_mb_each": o.rssMB,
		"ack": o.ack, "visible": o.visible, "query": o.query, "generator_late": o.late,
	}
}

// count adds a tally's attempts and failures to the pass's totals.
func (o *runOutput) count(t *tally) {
	o.attempted += t.attempted
	o.failed += t.failed
	for k, n := range t.causes {
		if o.failures == nil {
			o.failures = map[string]int{}
		}
		o.failures[k] += n
	}
}

func (o *runOutput) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !ok {
		o.correct = false
		msg = "FAILED: " + msg
	}
	o.checks = append(o.checks, msg)
}

// withPlane boots the plane over a fresh WAL directory prepared by
// prep, records its set-up time, runs fn against it (if fn is not nil),
// then stops it and removes the directory. Before the boot it flushes
// the filesystem, so the writeback of what set-up wrote and removed
// (slices, checkpoint copies, earlier boots' WALs) does not fall into
// the boot or the fsyncs of the phase that follows.
func withPlane(ctx context.Context, e *env, boot booter, prep func(dir string) error, out *runOutput, fn func(p plane) error) error {
	k := len(out.setups)
	dir := filepath.Join(e.workDir, fmt.Sprintf("wal-%d", k))
	if err := prep(dir); err != nil {
		return err
	}
	syncDisk()
	p, setup, err := boot(ctx, dir, k)
	if err != nil {
		return err
	}
	out.setups = append(out.setups, setup.Seconds())
	if fn != nil {
		err = fn(p)
	}
	if err = errors.Join(err, p.stop()); err != nil {
		return fmt.Errorf("boot %d: %w", k, err)
	}
	return os.RemoveAll(dir)
}

// saturate posts reqs closed loop over both connections and records
// the acknowledged records/s. The plane, which held base records
// before, must then publish exactly base plus every acknowledged
// record. With align, the phase starts just after an epoch cut.
func saturate(ctx context.Context, e *env, p plane, reqs []request, base int, align bool, out *runOutput) error {
	c := newClient()
	defer c.CloseIdleConnections()
	p.quiesce()
	if align {
		if err := afterCut(ctx, e, c, p.base()); err != nil {
			return err
		}
	}
	if err := p.beginTimed(); err != nil {
		return err
	}
	outs, elapsed := closedLoop(ctx, c, e.clk, p.base(), reqs)
	if _, err := p.endTimed(); err != nil {
		return err
	}
	var t tally
	t.add(reqs, outs)
	out.count(&t)
	out.satRates = append(out.satRates, float64(t.ackedRecords)/elapsed.Seconds())
	n, err := snapshot(ctx, c, p.base())
	if err != nil {
		return err
	}
	out.check(n == base+t.ackedRecords, "saturation: snapshot holds %d records, %d before plus %d acknowledged", n, base, t.ackedRecords)
	return nil
}

// afterCut waits until the plane publishes its next epoch, polling
// /v1/stats every 2 ms. A timed phase that starts there meets the
// plane's periodic cuts at the same offsets in every run, instead of
// one more or one fewer of them by chance.
func afterCut(ctx context.Context, e *env, c *http.Client, base string) error {
	epochOf := func() (int64, error) {
		body, err := getJSON(ctx, c, base, "GET", "/v1/stats", 200)
		if err != nil {
			return 0, err
		}
		var st struct{ Epoch int64 }
		return st.Epoch, json.Unmarshal(body, &st)
	}
	first, err := epochOf()
	if err != nil {
		return err
	}
	start := e.clk.Now()
	for e.clk.Now().Sub(start) < 10*time.Second {
		if err := simclock.Wait(ctx, 2*time.Millisecond); err != nil {
			return err
		}
		now, err := epochOf()
		if err != nil {
			return err
		}
		if now > first {
			return nil
		}
	}
	return errors.New("no epoch cut within 10 s")
}

// snapshot cuts an epoch through POST /v1/snapshot and returns the
// record count of the generation it published.
func snapshot(ctx context.Context, c *http.Client, base string) (int, error) {
	body, err := getJSON(ctx, c, base, "POST", "/v1/snapshot", 200)
	if err != nil {
		return 0, err
	}
	var snap struct{ Records int }
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("snapshot answer %q: %w", body, err)
	}
	return snap.Records, nil
}

// tracedSats is how many closed-loop boots a traced pass runs.
const tracedSats = 2

// lateLimit is how far behind its schedule the generator may finish
// before a run is marked invalid: a backlog that has not drained by the
// end of the window means the offered rate was not the rate served.
const lateLimit = time.Second

// keptSchedule reports whether the generator kept to its schedule: it
// handed every request over, and the last tenth of its hand-offs ran a
// median of less than lateLimit behind.
func keptSchedule(reqs []request, late []float64) bool {
	n := len(late)
	if n != len(reqs) {
		return false
	}
	return n == 0 || median(late[n-max(1, n/10):]) < ms(lateLimit)
}

// Sizing for ingest_durable. The open-loop window is split across
// durableWindows freshly booted planes, so one run's acks sample several
// independent garbage-collection histories of a heap that only grows.
const (
	durableBatch   = 500   // records per binary frame
	durableRate    = 40000 // records/s offered in the open loop
	durablePlain   = 15    // boots that only time set-up
	durableSats    = 3     // boots that take a closed-loop burst
	durableSat     = 350   // frames per closed-loop burst
	durableWindows = 3     // boots that take a share of the open-loop window
)

// ingestDurable: empty vmpds with -wal-fsync batch receive binary frames
// open loop with no query and no epoch cut, and other empty boots take
// frames closed loop for saturation. Each must end holding exactly the
// records it acknowledged.
func ingestDurable(ctx context.Context, e *env, boot booter, traced bool) (*runOutput, error) {
	out := &runOutput{correct: true, valid: true, e2e: map[string]float64{}, stride: 6}
	path, err := ensureSlice(e, out.stride)
	if err != nil {
		return nil, err
	}
	out.slicePath = path
	recs, err := loadSlice(path)
	if err != nil {
		return nil, err
	}
	enc := wire.NewEncoder()
	var frames []request
	for _, b := range chunk(recs, durableBatch) {
		r, err := binaryBody(enc, b)
		if err != nil {
			return nil, err
		}
		frames = append(frames, r)
	}
	every := time.Duration(float64(time.Second) * durableBatch / durableRate)
	open := make([]request, e.seconds*durableRate/durableBatch/durableWindows)
	for i := range open {
		open[i] = frames[i%len(frames)]
		open[i].due = time.Duration(i) * every
	}
	sat := make([]request, durableSat)
	for i := range sat {
		sat[i] = frames[i%len(frames)]
	}
	out.bodies = open
	out.delta = recs[len(recs)-min(len(recs), 2*durableRate):]

	fresh := func(dir string) error { return os.MkdirAll(dir, 0o755) }
	plain, sats := durablePlain, durableSats
	if traced {
		plain, sats = 0, tracedSats
	}
	for i := 0; i < plain; i++ {
		if err := withPlane(ctx, e, boot, fresh, out, nil); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sats; i++ {
		if err := withPlane(ctx, e, boot, fresh, out, func(p plane) error {
			return saturate(ctx, e, p, sat, 0, false, out)
		}); err != nil {
			return nil, err
		}
	}
	out.windowAt = windowStart(recs)
	var w windowSamples
	for i := 0; i < durableWindows; i++ {
		if err := withPlane(ctx, e, boot, fresh, out, func(p plane) error {
			return durableWindow(ctx, e, p, out, open, i, &w)
		}); err != nil {
			return nil, err
		}
	}
	out.ack = summarize(w.ack, ms(requestTimeout))
	out.visible = summarize(w.visible, math.Inf(1))
	out.query = summarize(w.query, ms(requestTimeout))
	out.late = summarize(w.late, math.Inf(1))
	out.setE2E()
	return out, nil
}

// windowSamples pools the latencies of ingest_durable's windows, in ms.
type windowSamples struct{ ack, visible, query, late []float64 }

// durableWindow runs one share of ingest_durable's open-loop window
// against p, then checks the plane: the cut POST /v1/snapshot makes
// must publish exactly the acknowledged records, and every query of the
// mix must then answer as the offline pipeline does over them. No cut
// runs inside the window, so its records become visible only at that
// check's cut; one /v1/stats poll after it gives their visibility
// latency.
func durableWindow(ctx context.Context, e *env, p plane, out *runOutput, open []request, k int, w *windowSamples) error {
	c := newClient()
	defer c.CloseIdleConnections()
	p.quiesce()
	if err := p.beginTimed(); err != nil {
		return err
	}
	start := e.clk.Now()
	outs, late := openLoop(ctx, c, e.clk, start, p.base(), open)
	rss, err := p.endTimed()
	if err != nil {
		return err
	}
	out.rssMB = append(out.rssMB, rss)
	out.valid = out.valid && keptSchedule(open, late)
	w.late = append(w.late, late...)
	var t tally
	t.add(open, outs)
	out.count(&t)
	var acks []ackEvent
	var acked []telemetry.ViewRecord
	for i := range outs {
		w.ack = append(w.ack, outs[i].latencyMS(open[i].due))
		if outs[i].failed {
			w.visible = append(w.visible, math.Inf(1)) // a failed batch is never visible
			continue
		}
		acks = append(acks, ackEvent{at: outs[i].done, records: len(open[i].batch)})
		acked = append(acked, open[i].batch...)
	}
	n, err := snapshot(ctx, c, p.base())
	if err != nil {
		return err
	}
	out.check(n == len(acked), "window %d: snapshot holds %d records, acknowledged %d", k, n, len(acked))
	poll := request{kind: opStats, method: "GET", path: "/v1/stats", want: 200}
	var o outcome
	doRequest(ctx, c, e.clk, start, p.base(), &poll, &o)
	if o.failed {
		return fmt.Errorf("window %d: /v1/stats: %s", k, o.cause())
	}
	var st struct{ Records int }
	if err := json.Unmarshal(o.body, &st); err != nil {
		return fmt.Errorf("stats answer %q: %w", o.body, err)
	}
	w.visible = append(w.visible, visibleLatencies(acks, []pollEvent{{sent: o.sent, done: o.done, published: st.Records}}, 0)...)
	_, qms, err := checkQueries(ctx, e, c, p.base(), out, acked)
	w.query = append(w.query, qms...)
	return err
}

// setE2E fills the metrics the traced pass is compared on: the gated
// ones and the ack median.
func (o *runOutput) setE2E() {
	o.e2e["setup_s"] = median(o.setups)
	o.e2e["ack_p50_ms"] = o.ack.P50
	o.e2e["ingest_rps"] = median(o.satRates)
	o.e2e["rss_peak_mb"] = median(o.rssMB)
}

// Sizing for serve_history. The history and the held-back tail have
// fixed sizes, so every seed's cuts sort, freeze and checkpoint the
// same number of records; only their contents change with the seed.
const (
	serveStride = 3      // vmpgen stride: 368k to 396k records over the seeds tried
	serveHist   = 170000 // records in the boot checkpoint
	serveTail   = 160000 // newest records, streamed after the history
	// serveBatch is the batch a publisher's sensor posts: the default
	// of telemetry.NewSensor.
	serveBatch = 100
	// serveSatBatch is the batch size of the closed-loop phase. With
	// sensor-sized batches every request queues one message per shard,
	// so two connections posting flat out can fill the 64-deep shard
	// queues, and the plane answers 429. Larger batches measure the same
	// decode and admission work without tripping backpressure.
	serveSatBatch = 500
	// serveRate and serveQPS are assumptions, not measurements of a
	// deployment: 2k records/s from many sensors, and a few operators'
	// dashboards cycling through the query mix.
	serveRate = 20 // sensor batches/s offered in the open loop
	serveQPS  = 20 // queries/s offered in the open loop
	// servePoll is the freshness probe's cadence: vmpd's default WAL
	// group-commit cadence (-wal-sync-every), the finest step at which
	// acknowledged records become durable.
	servePoll  = 25 * time.Millisecond
	serveDrain = 2500 * time.Millisecond // freshness probes after the window
	servePlain = 3                       // boots that only time set-up
	serveSats  = 2                       // boots that take the held-back tail closed loop
)

// queryMix is the operator's fixed query rotation, minus the window
// query whose start depends on the history.
var queryMix = []string{
	"/v1/query/share?dim=protocol&by=viewhours",
	"/v1/query/share?dim=protocol&by=views",
	"/v1/query/share?dim=platform&by=viewhours",
	"/v1/query/share?dim=platform&by=views",
	"/v1/query/share?dim=cdn&by=viewhours",
	"/v1/query/share?dim=cdn&by=views",
	"/v1/query/top-publishers?n=10",
}

// serveHistory: vmpd boots from a checkpoint of the slice's records
// just older than its tail, with 1 s epochs. In the open-loop window the next records
// stream in, in timestamp order, as small gzip-JSONL batches while the
// operator queries and polls freshness; separate boots each take the
// whole held-back tail closed loop for saturation. The final answers
// must equal vmpstudy's over history plus everything acknowledged.
func serveHistory(ctx context.Context, e *env, boot booter, traced bool) (*runOutput, error) {
	out := &runOutput{correct: true, e2e: map[string]float64{}, stride: serveStride}
	path, err := ensureSlice(e, out.stride)
	if err != nil {
		return nil, err
	}
	out.slicePath = path
	recs, err := loadSlice(path)
	if err != nil {
		return nil, err
	}
	nOpen := e.seconds * serveRate
	if len(recs) < serveHist+serveTail || nOpen*serveBatch > serveTail {
		return nil, fmt.Errorf("need %d records of history and %d streamed of a %d-record tail; the slice holds %d",
			serveHist, nOpen*serveBatch, serveTail, len(recs))
	}
	tail := recs[len(recs)-serveTail:]
	hist := recs[len(recs)-serveTail-serveHist : len(recs)-serveTail]
	ckpt, err := ensureHistoryWAL(ctx, e, hist)
	if err != nil {
		return nil, err
	}
	out.windowAt = windowStart(hist)
	mix := mixAt(out.windowAt)

	var open, sat []request
	for i, b := range chunk(tail[:nOpen*serveBatch], serveBatch) {
		r, err := jsonlGzipBody(b)
		if err != nil {
			return nil, err
		}
		r.due = time.Duration(i) * time.Second / serveRate
		open = append(open, r)
	}
	for _, b := range chunk(tail, serveSatBatch) {
		r, err := jsonlGzipBody(b)
		if err != nil {
			return nil, err
		}
		sat = append(sat, r)
	}
	out.bodies = slices.Clone(open)
	out.delta = tail[:serveRate*serveBatch]
	window := time.Duration(e.seconds) * time.Second
	for i := 0; time.Duration(i)*time.Second/serveQPS < window; i++ {
		open = append(open, request{kind: opQuery, method: "GET", path: mix[i%len(mix)], want: 200,
			due: time.Duration(i) * time.Second / serveQPS})
	}
	for t := time.Duration(0); t < window+serveDrain; t += servePoll {
		open = append(open, request{kind: opStats, method: "GET", path: "/v1/stats", want: 200, due: t})
	}
	slices.SortStableFunc(open, func(a, b request) int { return cmpDur(a.due, b.due) })

	copyCkpt := func(dir string) error { return copyDir(ckpt, dir) }
	plain, sats := servePlain, serveSats
	if traced {
		plain, sats = 0, tracedSats
	}
	for i := 0; i < plain; i++ {
		if err := withPlane(ctx, e, boot, copyCkpt, out, nil); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sats; i++ {
		if err := withPlane(ctx, e, boot, copyCkpt, out, func(p plane) error {
			return saturate(ctx, e, p, sat, len(hist), true, out)
		}); err != nil {
			return nil, err
		}
	}
	if err := withPlane(ctx, e, boot, copyCkpt, out, func(p plane) error {
		return serveWindow(ctx, e, p, out, hist, open)
	}); err != nil {
		return nil, err
	}
	out.setE2E()
	return out, nil
}

// serveWindow runs serve_history's open-loop window against p and
// checks the plane's final answers.
func serveWindow(ctx context.Context, e *env, p plane, out *runOutput, hist []telemetry.ViewRecord, open []request) error {
	c := newClient()
	defer c.CloseIdleConnections()
	if n, err := published(ctx, c, p.base()); err != nil || n != len(hist) {
		return fmt.Errorf("booted generation holds %d records, want the %d of history (%v)", n, len(hist), err)
	}
	p.quiesce()
	if err := afterCut(ctx, e, c, p.base()); err != nil {
		return err
	}
	if err := p.beginTimed(); err != nil {
		return err
	}
	outs, late := openLoop(ctx, c, e.clk, e.clk.Now(), p.base(), open)
	rss, err := p.endTimed()
	if err != nil {
		return err
	}
	out.rssMB = append(out.rssMB, rss)
	out.late = summarize(late, math.Inf(1))
	out.valid = keptSchedule(open, late)
	var ackMS, queryMS []float64
	var acks []ackEvent
	var polls []pollEvent
	var acked []telemetry.ViewRecord
	var t tally
	t.add(open, outs)
	out.count(&t)
	for i := range outs {
		r, o := &open[i], &outs[i]
		switch r.kind {
		case opIngest:
			ackMS = append(ackMS, o.latencyMS(r.due))
			if !o.failed {
				acks = append(acks, ackEvent{at: o.done, records: len(r.batch)})
				acked = append(acked, r.batch...)
			}
		case opQuery:
			queryMS = append(queryMS, o.latencyMS(r.due))
		case opStats:
			var st struct{ Records int }
			if o.failed {
				continue
			}
			if err := json.Unmarshal(o.body, &st); err != nil {
				return fmt.Errorf("stats answer %q: %w", o.body, err)
			}
			polls = append(polls, pollEvent{sent: o.sent, done: o.done, published: st.Records})
		}
	}
	out.ack = summarize(ackMS, ms(requestTimeout))
	out.query = summarize(queryMS, ms(requestTimeout))
	vis := visibleLatencies(acks, polls, len(hist))
	for range len(ackMS) - len(acks) {
		vis = append(vis, math.Inf(1)) // a failed batch is never visible
	}
	window := time.Duration(e.seconds) * time.Second
	out.visible = summarize(vis, ms(window+serveDrain))
	out.final = append(slices.Clone(hist), acked...)
	return checkAnswers(ctx, e, c, p.base(), out)
}

// published reads the published generation's record count.
func published(ctx context.Context, c *http.Client, base string) (int, error) {
	body, err := getJSON(ctx, c, base, "GET", "/v1/stats", 200)
	if err != nil {
		return 0, err
	}
	var st struct{ Records int }
	return st.Records, json.Unmarshal(body, &st)
}

// checkAnswers cuts a final epoch and requires it to hold exactly
// history plus every acknowledged record, every query of the mix to
// answer as the offline pipeline does over that record set, and
// share-by-protocol followed by the top publishers to equal
// vmpstudy -input byte for byte.
func checkAnswers(ctx context.Context, e *env, c *http.Client, base string, out *runOutput) error {
	n, err := snapshot(ctx, c, base)
	if err != nil {
		return err
	}
	out.check(n == len(out.final), "final epoch holds %d records, history plus acknowledged is %d", n, len(out.final))
	served, _, err := checkQueries(ctx, e, c, base, out, out.final)
	if err != nil {
		return err
	}
	refPath := filepath.Join(e.workDir, "reference.jsonl")
	if err := writeJSONL(refPath, out.final); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, e.bin("vmpstudy"), "-input", refPath, "-share", "protocol", "-share-by", "viewhours", "-top", "10")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	offline, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("vmpstudy: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	online := append(slices.Clone(served[queryMix[0]]), served["/v1/query/top-publishers?n=10"]...)
	out.check(bytes.Equal(online, offline), "share-by-protocol and top-10 equal vmpstudy -input byte for byte")
	return nil
}

// checkQueries asks the plane every query of the mix and requires each
// answer to equal, byte for byte, the same query function's answer over
// a dataset built independently from recs. It returns the answers and
// each query's latency, from send to the full body, in ms.
func checkQueries(ctx context.Context, e *env, c *http.Client, base string, out *runOutput, recs []telemetry.ViewRecord) (map[string][]byte, []float64, error) {
	ref := slices.Clone(recs)
	telemetry.CanonicalSort(ref)
	ds := telemetry.NewDataset(ref)
	served := map[string][]byte{}
	var lat []float64
	for _, q := range mixAt(out.windowAt) {
		start := e.clk.Now()
		body, err := getJSON(ctx, c, base, "GET", q, 200)
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, ms(e.clk.Now().Sub(start)))
		want, err := offlineAnswer(ds, q, out.windowAt)
		if err != nil {
			return nil, nil, err
		}
		served[q] = body
		out.check(bytes.Equal(body, want), "%s equals the offline answer byte for byte", q)
	}
	return served, lat, nil
}

// mixAt is the operator's query rotation with its window query
// starting at windowAt.
func mixAt(windowAt time.Time) []string {
	return append(slices.Clone(queryMix), "/v1/query/window?days=2&start="+windowAt.Format(time.RFC3339))
}

// windowStart is where the window query starts: the day before the
// newest record's day.
func windowStart(recs []telemetry.ViewRecord) time.Time {
	var last time.Time
	for _, r := range recs {
		if r.Timestamp.After(last) {
			last = r.Timestamp
		}
	}
	return last.UTC().Truncate(24 * time.Hour).Add(-24 * time.Hour)
}

// offlineAnswer computes one query of the mix over ds the way
// vmpstudy's answer mode does.
func offlineAnswer(ds *telemetry.Dataset, q string, windowAt time.Time) ([]byte, error) {
	var v any
	switch {
	case strings.HasPrefix(q, "/v1/query/share?"):
		var dim, by string
		if _, err := fmt.Sscanf(strings.ReplaceAll(strings.TrimPrefix(q, "/v1/query/share?dim="), "&by=", " "), "%s %s", &dim, &by); err != nil {
			return nil, fmt.Errorf("parse %q: %w", q, err)
		}
		resp, err := live.ShareOver(ds, dim, by)
		if err != nil {
			return nil, err
		}
		v = resp
	case q == "/v1/query/top-publishers?n=10":
		v = live.TopPublishersOver(ds, 10)
	case strings.HasPrefix(q, "/v1/query/window?"):
		v = live.WindowOver(ds, windowAt, 2)
	default:
		return nil, errors.New("no offline answer for " + q)
	}
	return live.MarshalResponse(v)
}
