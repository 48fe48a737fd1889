package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// statusServer answers each path with a fixed status; /hang holds the
// request until the client gives up.
func statusServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for path, status := range map[string]int{
		"/accepted":    http.StatusAccepted,
		"/ok":          http.StatusOK,
		"/backpressed": http.StatusTooManyRequests,
		"/broken":      http.StatusInternalServerError,
		"/unavailable": http.StatusServiceUnavailable,
		"/bad":         http.StatusBadRequest,
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(status) })
	}
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFailureAccounting(t *testing.T) {
	srv := statusServer(t)
	c := &http.Client{Timeout: 100 * time.Millisecond}
	clk := simclock.Wall()
	for _, tc := range []struct {
		path   string
		want   int
		failed bool
	}{
		{"/accepted", 202, false},
		{"/ok", 200, false},
		{"/ok", 202, true}, // an ingest answered 200 was not acknowledged
		{"/backpressed", 202, true},
		{"/broken", 202, true},
		{"/unavailable", 202, true},
		{"/bad", 202, true},
		{"/hang", 202, true}, // timeout
	} {
		var o outcome
		r := request{method: "GET", path: tc.path, want: tc.want}
		doRequest(context.Background(), c, clk, clk.Now(), srv.URL, &r, &o)
		if o.failed != tc.failed {
			t.Errorf("%s want %d: failed=%v (status %d, err %v), want %v", tc.path, tc.want, o.failed, o.status, o.err, tc.failed)
		}
		if lat := o.latencyMS(0); math.IsInf(lat, 1) != tc.failed {
			t.Errorf("%s: latency %v; a failure must miss every limit and only a failure may", tc.path, lat)
		}
		if tc.path == "/hang" && o.cause() != "timeout" {
			t.Errorf("/hang failed as %q, want timeout", o.cause())
		}
	}
	if !failedOutcome(0, 202, context.DeadlineExceeded) {
		t.Error("a transport error or timeout must count as failed")
	}
}

func TestOpenLoopTallies(t *testing.T) {
	srv := statusServer(t)
	var reqs []request
	for i, path := range []string{"/accepted", "/backpressed", "/accepted", "/broken", "/accepted"} {
		reqs = append(reqs, request{kind: opIngest, method: "POST", path: path, want: 202, batch: make([]telemetry.ViewRecord, 10),
			due: time.Duration(i) * time.Millisecond})
	}
	reqs = append(reqs, request{kind: opQuery, method: "GET", path: "/ok", want: 200, due: 6 * time.Millisecond})
	clk := simclock.Wall()
	outs, late := openLoop(context.Background(), newClient(), clk, clk.Now(), srv.URL, reqs)
	if len(late) != len(reqs) {
		t.Fatalf("dispatched %d of %d", len(late), len(reqs))
	}
	var tl tally
	tl.add(reqs, outs)
	if tl.attempted != 6 || tl.failed != 2 || tl.ackedRecords != 30 {
		t.Errorf("tally %+v, want 6 attempted, 2 failed, 30 records acknowledged", tl)
	}
	if tl.causes["/backpressed: status 429"] != 1 || tl.causes["/broken: status 500"] != 1 {
		t.Errorf("failure causes %v", tl.causes)
	}
	for i := range outs {
		if outs[i].done < outs[i].sent || outs[i].sent < reqs[i].due {
			t.Errorf("request %d: due %v sent %v done %v out of order", i, reqs[i].due, outs[i].sent, outs[i].done)
		}
	}
}

func TestClosedLoopRunsEveryRequest(t *testing.T) {
	srv := statusServer(t)
	reqs := make([]request, 25)
	for i := range reqs {
		reqs[i] = request{kind: opIngest, method: "POST", path: "/accepted", want: 202, batch: make([]telemetry.ViewRecord, 2)}
	}
	outs, elapsed := closedLoop(context.Background(), newClient(), simclock.Wall(), srv.URL, reqs)
	var tl tally
	tl.add(reqs, outs)
	if tl.attempted != 25 || tl.failed != 0 || tl.ackedRecords != 50 || elapsed <= 0 {
		t.Errorf("tally %+v over %v", tl, elapsed)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the harness and the
// benchmark definition at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayerMetrics)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
}
