package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// conns is the generator's connection budget: the plane shares the
// machine's two cores with the load, so one process drives it over at
// most two connections from at most two worker goroutines.
const conns = 2

// requestTimeout bounds one request. A request that times out counts
// as failed, and as missing every latency limit.
const requestTimeout = 5 * time.Second

// opKind tells the workloads' result accounting what a request was.
type opKind int

const (
	opIngest opKind = iota
	opQuery
	opStats
)

// request is one pre-built HTTP request on the generator's schedule.
// Bodies are encoded during set-up, so the timed phase spends no CPU
// encoding.
type request struct {
	kind   opKind
	due    time.Duration // offset from the schedule's start
	method string
	path   string
	body   []byte
	ctype  string
	cenc   string
	batch  []telemetry.ViewRecord // records carried (ingest)
	want   int                    // the status that counts as success
}

// outcome is what happened to one request. sent and done are offsets
// from the schedule's start; latency runs from due to done.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
	err        error
	failed     bool
}

// latencyMS is the outcome's due-to-done latency in milliseconds, or
// +Inf when the request failed.
func (o *outcome) latencyMS(due time.Duration) float64 {
	if o.failed {
		return math.Inf(1)
	}
	return ms(o.done - due)
}

// cause names why a failed outcome failed, for the run record.
func (o *outcome) cause() string {
	var ne net.Error
	switch {
	case o.err == nil:
		return fmt.Sprintf("status %d", o.status)
	case errors.Is(o.err, context.DeadlineExceeded), errors.As(o.err, &ne) && ne.Timeout():
		return "timeout"
	}
	return "transport error"
}

// failedOutcome is the generator's failure rule: a transport error or
// timeout, or any status other than the one the request expects —
// 429 backpressure, a 5xx, or a 4xx — is a failed operation.
func failedOutcome(status, want int, err error) bool {
	return err != nil || status != want
}

// newClient returns an HTTP client limited to the generator's
// connection budget. Bodies are sent pre-compressed, so transparent
// compression stays off.
func newClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: requestTimeout}
}

// send issues r against base and reads the whole response body.
func send(ctx context.Context, c *http.Client, base string, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if r.cenc != "" {
		req.Header.Set("Content-Encoding", r.cenc)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read side: the body was consumed or the error wins
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, err
}

// doRequest runs one request and records its outcome relative to start.
func doRequest(ctx context.Context, c *http.Client, clk simclock.Clock, start time.Time, base string, r *request, o *outcome) {
	o.sent = clk.Now().Sub(start)
	status, body, err := send(ctx, c, base, r)
	o.done = clk.Now().Sub(start)
	o.status, o.body, o.err = status, body, err
	o.failed = failedOutcome(status, r.want, err)
}

// openLoop sends reqs (sorted by due) on their schedule regardless of
// how earlier requests fare: a dispatcher releases each request at its
// due time to whichever of the conns workers is free, so a stalled
// server delays later requests and that wait shows in their latency.
// The schedule starts at start. It returns one outcome per request and
// the lateness of each hand-off to a worker, in milliseconds.
func openLoop(ctx context.Context, c *http.Client, clk simclock.Clock, start time.Time, base string, reqs []request) ([]outcome, []float64) {
	outs := make([]outcome, len(reqs))
	late := make([]float64, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				doRequest(ctx, c, clk, start, base, &reqs[i], &outs[i])
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := range reqs {
		if wait := reqs[i].due - clk.Now().Sub(start); wait > 0 {
			if simclock.Wait(ctx, wait) != nil {
				break
			}
		}
		select {
		case work <- i:
			late[i] = ms(clk.Now().Sub(start) - reqs[i].due)
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	for i := dispatched; i < len(reqs); i++ {
		outs[i] = outcome{failed: true, err: ctx.Err()}
	}
	return outs, late[:dispatched]
}

// closedLoop sends reqs as fast as the conns workers can: each worker
// posts its next request as soon as the previous one completes. It
// returns the outcomes and the wall time from first send to last
// completion.
func closedLoop(ctx context.Context, c *http.Client, clk simclock.Clock, base string, reqs []request) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					outs[i] = outcome{failed: true, err: err}
					continue
				}
				doRequest(ctx, c, clk, start, base, &reqs[i], &outs[i])
			}
		}()
	}
	wg.Wait()
	return outs, clk.Now().Sub(start)
}

// tally folds outcomes into counts: requests attempted and failed, why
// they failed, and records acknowledged.
type tally struct {
	attempted, failed, ackedRecords int
	causes                          map[string]int
}

func (t *tally) add(reqs []request, outs []outcome) {
	for i := range outs {
		t.attempted++
		if outs[i].failed {
			t.failed++
			if t.causes == nil {
				t.causes = map[string]int{}
			}
			t.causes[fmt.Sprintf("%s: %s", reqs[i].path, outs[i].cause())]++
			continue
		}
		if reqs[i].kind == opIngest {
			t.ackedRecords += len(reqs[i].batch)
		}
	}
}

// getJSON issues one request outside any schedule and fails unless it
// answers with want.
func getJSON(ctx context.Context, c *http.Client, base, method, path string, want int) ([]byte, error) {
	status, body, err := send(ctx, c, base, &request{method: method, path: path})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
	}
	return body, nil
}
