package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
	"vmp/internal/wal"
)

// handlerTimer wraps live.Server's handler and times each request by
// endpoint family, from the handler's entry to its return.
type handlerTimer struct {
	next http.Handler
	clk  simclock.Clock

	mu    sync.Mutex
	calls map[string][]float64 // endpoint family → durations, ms
}

func newHandlerTimer(next http.Handler, clk simclock.Clock) *handlerTimer {
	return &handlerTimer{next: next, clk: clk, calls: map[string][]float64{}}
}

// family maps a request path to the endpoint family it is timed under.
func family(path string) string {
	switch {
	case path == "/v1/views":
		return "views"
	case strings.HasPrefix(path, "/v1/query/"):
		return "query"
	case path == "/v1/stats":
		return "stats"
	case path == "/v1/snapshot":
		return "snapshot"
	}
	return "other"
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.clk.Now()
	h.next.ServeHTTP(w, r)
	d := ms(h.clk.Now().Sub(start))
	f := family(r.URL.Path)
	h.mu.Lock()
	h.calls[f] = append(h.calls[f], d)
	h.mu.Unlock()
}

// take returns and clears the recorded durations.
func (h *handlerTimer) take() map[string][]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.calls
	h.calls = map[string][]float64{}
	return out
}

// walTimer implements live.WAL around *wal.Log and times AppendBatch
// and Commit. The engine serializes AppendBatch and Bounds under its
// admission lock, but Commit runs outside it, so recording is locked.
type walTimer struct {
	log *wal.Log
	clk simclock.Clock

	mu      sync.Mutex
	appends []float64 // ms
	commits []float64 // ms
	errors  int
}

var _ live.WAL = (*walTimer)(nil)

func (w *walTimer) AppendBatch(parts [][]telemetry.ViewRecord, parent obs.SpanID) error {
	start := w.clk.Now()
	err := w.log.AppendBatch(parts, parent)
	w.record(&w.appends, start, err)
	return err
}

func (w *walTimer) Bounds() []uint64 { return w.log.Bounds() }

func (w *walTimer) Commit(epoch int64, records []telemetry.ViewRecord, bounds []uint64, parent obs.SpanID) error {
	start := w.clk.Now()
	err := w.log.Commit(epoch, records, bounds, parent)
	w.record(&w.commits, start, err)
	return err
}

func (w *walTimer) record(into *[]float64, start time.Time, err error) {
	d := ms(w.clk.Now().Sub(start))
	w.mu.Lock()
	*into = append(*into, d)
	if err != nil {
		w.errors++
	}
	w.mu.Unlock()
}

// commitCount returns how many commits have been recorded.
func (w *walTimer) commitCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.commits)
}

// commitSince sums the commit durations recorded after the first n.
func (w *walTimer) commitSince(n int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	sum := 0.0
	for _, d := range w.commits[min(n, len(w.commits)):] {
		sum += d
	}
	return sum
}

// take returns and clears the recorded durations and error count.
func (w *walTimer) take() (appends, commits []float64, errs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	appends, commits, errs = w.appends, w.commits, w.errors
	w.appends, w.commits, w.errors = nil, nil, 0
	return appends, commits, errs
}

// cutSample is one epoch cut driven on the workload's cadence.
type cutSample struct {
	totalMS, commitMS float64
	base, delta       int
}

// runtimeKeys are the runtime/metrics samples read around the timed
// phase.
var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readRuntime reads runtimeKeys as float64s.
func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	out := make(map[string]float64, len(s))
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedLayers is what the in-process plane recorded over one timed
// phase.
type timedLayers struct {
	handler         map[string][]float64
	appends         []float64
	commits         []float64
	walErrors       int
	cuts            []cutSample
	fsyncs          int64
	backpressured   int64
	queueDepthMax   int64
	backlogBytesMax int64
	heapPeakBytes   float64
	rtBefore        map[string]float64
	rtAfter         map[string]float64
	cpuS            float64
	wall            time.Duration
	published       int // records the plane had published when the phase ended
}

// inproc is the traced plane: vmpd's boot sequence, engine, server and
// WAL in this process, with the server behind a handlerTimer, the WAL
// behind a walTimer, and epoch cuts driven here on the workload's
// cadence so each one can be timed.
type inproc struct {
	clk    simclock.Clock
	reg    *obs.Registry
	engine *live.Engine
	log    *wal.Log
	wt     *walTimer
	ht     *handlerTimer
	srv    *http.Server
	url    string
	walDir string
	replay time.Duration
	loaded int64

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	cuts      []cutSample
	depthMax  int64
	backMax   int64
	heapPeak  float64
	timedFrom time.Time
	rtBefore  map[string]float64
	cpuBefore float64
	fsyncs0   int64 // wal_fsync_total at beginTimed
	backp0    int64 // live_ingest_backpressured_total at beginTimed

	layers timedLayers
	// What the handler and WAL timers recorded between the end of the
	// timed phase and shutdown: the output checks' requests.
	after        map[string][]float64
	afterCommits []float64
	final        *live.Generation
	ckptBytes    int64 // checkpoint files left in walDir after stop
	stopped      bool
	stopErr      error
}

// inprocBooter boots in-process planes for w, handing the last one
// booted back through last so the per-layer report can read it.
func inprocBooter(e *env, w workload, last **inproc) booter {
	return func(ctx context.Context, walDir string, _ int) (plane, time.Duration, error) {
		p, setup, err := bootInproc(ctx, e.clk, walDir, w.policy, w.epoch)
		if err != nil {
			return nil, 0, err
		}
		*last = p
		return p, setup, nil
	}
}

// bootInproc mirrors vmpd's boot: open the WAL, replay it through the
// engine, attach it, publish the first generation, then open the
// listener. Set-up time runs to the first healthy answer, as for vmpd.
// With epoch > 0 the plane cuts every epoch.
func bootInproc(ctx context.Context, clk simclock.Clock, walDir, walPolicy string, epoch time.Duration) (*inproc, time.Duration, error) {
	policy, err := wal.ParsePolicy(walPolicy)
	if err != nil {
		return nil, 0, err
	}
	start := clk.Now()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(clk, 0)
	tracer.SetEnabled(false)
	engine := live.NewEngine(live.Config{Clock: clk, Metrics: reg, Trace: tracer})
	log, err := wal.Open(wal.Options{Dir: walDir, Policy: policy, Clock: clk, Metrics: reg, Trace: tracer})
	if err != nil {
		engine.Close()
		return nil, 0, err
	}
	stats, err := log.Replay(func(recs []telemetry.ViewRecord) error { return ingestAll(ctx, engine, recs) }, 0)
	if err != nil {
		engine.Close()
		return nil, 0, errors.Join(fmt.Errorf("wal replay: %w", err), log.Close())
	}
	wt := &walTimer{log: log, clk: clk}
	engine.AttachWAL(wt)
	engine.Snapshot()
	replay := clk.Now().Sub(start)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		engine.Close()
		return nil, 0, errors.Join(err, log.Close())
	}
	ht := newHandlerTimer(live.NewServer(engine).Handler(), clk)
	p := &inproc{
		clk: clk, reg: reg, engine: engine, log: log, wt: wt, ht: ht,
		srv:    &http.Server{Handler: ht, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		walDir: walDir, replay: replay, loaded: stats.Delivered(),
	}
	bg, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	p.wg.Add(1)
	go p.sample(bg)
	if epoch > 0 {
		p.wg.Add(1)
		go p.cutEvery(bg, epoch)
	}
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	if _, err := getJSON(ctx, c, p.url, "GET", "/healthz", 200); err != nil {
		return nil, 0, errors.Join(err, p.stop())
	}
	return p, clk.Now().Sub(start), nil
}

// ingestAll admits one batch, waiting out backpressure, as vmpd's
// replay sink does.
func ingestAll(ctx context.Context, engine *live.Engine, recs []telemetry.ViewRecord) error {
	for {
		res, err := engine.Ingest(recs)
		if err != nil {
			return err
		}
		if res.Backpressured == 0 {
			return nil
		}
		if err := simclock.Wait(ctx, res.RetryAfter); err != nil {
			return err
		}
	}
}

// cutEvery cuts an epoch every d until ctx ends, timing each cut and
// the WAL commit inside it.
func (p *inproc) cutEvery(ctx context.Context, d time.Duration) {
	defer p.wg.Done()
	tick := time.NewTicker(d)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		base := p.engine.Generation().Records
		n := p.wt.commitCount()
		start := p.clk.Now()
		g := p.engine.Snapshot()
		s := cutSample{totalMS: ms(p.clk.Now().Sub(start)), commitMS: p.wt.commitSince(n), base: base, delta: g.Records - base}
		p.mu.Lock()
		p.cuts = append(p.cuts, s)
		p.mu.Unlock()
	}
}

// sample tracks the admission queue depth, the WAL backlog and the
// live heap every 20 ms, keeping their maxima.
func (p *inproc) sample(ctx context.Context) {
	defer p.wg.Done()
	depth := p.reg.Gauge("live_queue_depth_batches")
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		p.engine.PublishGauges()
		_, backlog := p.log.Backlog()
		metrics.Read(heap)
		p.mu.Lock()
		p.depthMax = max(p.depthMax, depth.Load())
		p.backMax = max(p.backMax, backlog)
		p.heapPeak = max(p.heapPeak, float64(heap[0].Value.Uint64()))
		p.mu.Unlock()
	}
}

func (p *inproc) base() string { return p.url }

// quiesce does nothing: the plane shares the harness's heap, so the
// collector keeps running for both.
func (p *inproc) quiesce() {}

func (p *inproc) beginTimed() error {
	p.ht.take()
	p.wt.take()
	p.mu.Lock()
	p.cuts = nil
	p.depthMax, p.backMax, p.heapPeak = 0, 0, 0
	p.timedFrom = p.clk.Now()
	p.mu.Unlock()
	p.fsyncs0 = p.reg.Counter("wal_fsync_total").Load()
	p.backp0 = p.reg.Counter("live_ingest_backpressured_total").Load()
	p.rtBefore = readRuntime()
	p.cpuBefore = cpuSeconds()
	return resetPeakRSS(os.Getpid())
}

func (p *inproc) endTimed() (float64, error) {
	l := &p.layers
	l.cpuS = cpuSeconds() - p.cpuBefore
	l.rtBefore, l.rtAfter = p.rtBefore, readRuntime()
	l.handler = p.ht.take()
	l.appends, l.commits, l.walErrors = p.wt.take()
	l.fsyncs = p.reg.Counter("wal_fsync_total").Load() - p.fsyncs0
	l.backpressured = p.reg.Counter("live_ingest_backpressured_total").Load() - p.backp0
	p.mu.Lock()
	l.cuts = p.cuts
	l.queueDepthMax, l.backlogBytesMax, l.heapPeakBytes = p.depthMax, p.backMax, p.heapPeak
	l.wall = p.clk.Now().Sub(p.timedFrom)
	p.mu.Unlock()
	l.published = p.engine.Generation().Records
	return peakRSSMB(os.Getpid())
}

// stop shuts the listener down, stops the cutter and sampler, closes
// the engine (publishing a final generation) and then the WAL, as vmpd
// does on SIGTERM. It is idempotent.
func (p *inproc) stop() error {
	if p.stopped {
		return p.stopErr
	}
	p.stopped = true
	p.after = p.ht.take()
	_, p.afterCommits, _ = p.wt.take()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	p.cancel()
	p.wg.Wait()
	p.final = p.engine.Close()
	err = errors.Join(err, p.log.Close())
	p.ckptBytes, p.stopErr = checkpointBytes(p.walDir)
	p.stopErr = errors.Join(err, p.stopErr)
	return p.stopErr
}

// checkCut returns the first cut made after the timed phase through
// POST /v1/snapshot, as an output check makes it, and the WAL commit
// inside it; both are empty if there was none.
func (p *inproc) checkCut() ([]cutSample, []float64) {
	snaps := p.after["snapshot"]
	if len(snaps) == 0 {
		return nil, nil
	}
	c := cutSample{totalMS: snaps[0], base: p.layers.published, delta: p.final.Records - p.layers.published}
	if len(p.afterCommits) == 0 {
		return []cutSample{c}, nil
	}
	c.commitMS = p.afterCommits[0]
	return []cutSample{c}, p.afterCommits[:1]
}
