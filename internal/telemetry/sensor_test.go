package telemetry_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vmp/internal/live"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// newServer starts vmpd's serving plane behind an httptest server and
// returns its /v1/views URL, its HTTP client, and the engine.
func newServer(t *testing.T) (string, *http.Client, *live.Engine) {
	t.Helper()
	e := live.NewEngine(live.Config{Shards: 2, Clock: simclock.NewManual(simclock.StudyStart)})
	srv := httptest.NewServer(live.NewServer(e).Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv.URL + "/v1/views", srv.Client(), e
}

func view(pub string, day int) telemetry.ViewRecord {
	return telemetry.ViewRecord{
		Timestamp: simclock.DayTime(day),
		Publisher: pub,
		VideoID:   "v1",
		URL:       "http://cdn-a/p/v1.m3u8",
		Device:    "Roku",
		ViewSec:   60,
	}
}

func TestSensorBatchingAndFlush(t *testing.T) {
	endpoint, client, e := newServer(t)
	sensor := telemetry.NewSensor(endpoint, client, 3)
	for i := 0; i < 2; i++ {
		if err := sensor.Report(view("p1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if g := e.Snapshot(); g.Records != 0 || sensor.Pending() != 2 {
		t.Fatalf("sensor flushed before batch was full: stored=%d pending=%d", g.Records, sensor.Pending())
	}
	if err := sensor.Report(view("p1", 2)); err != nil {
		t.Fatal(err) // third report triggers auto-flush
	}
	if g := e.Snapshot(); g.Records != 3 || sensor.Pending() != 0 {
		t.Fatalf("auto-flush failed: stored=%d pending=%d", g.Records, sensor.Pending())
	}
	// Explicit flush of an empty batch is a no-op.
	if err := sensor.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSensorCollectorDown(t *testing.T) {
	sensor := telemetry.NewSensor("http://127.0.0.1:1/v1/views", &http.Client{Timeout: 200 * time.Millisecond}, 1)
	if err := sensor.Report(view("p1", 0)); err == nil {
		t.Fatal("report to a dead endpoint should error")
	}
	if sensor.Pending() != 1 {
		t.Fatalf("failed post dropped the batch: pending=%d", sensor.Pending())
	}
}

// TestNewSensorDefaults checks a nil client and a batchMax < 1 fall
// back to http.DefaultClient and 100-record batches.
func TestNewSensorDefaults(t *testing.T) {
	endpoint, _, e := newServer(t)
	sensor := telemetry.NewSensor(endpoint, nil, 0)
	for i := 0; i < 99; i++ {
		if err := sensor.Report(view("p1", i%50)); err != nil {
			t.Fatal(err)
		}
	}
	if sensor.Pending() != 99 {
		t.Fatalf("pending = %d, want 99 before the default batch fills", sensor.Pending())
	}
	if err := sensor.Report(view("p1", 0)); err != nil {
		t.Fatal(err)
	}
	if g := e.Snapshot(); g.Records != 100 || sensor.Pending() != 0 {
		t.Fatalf("default batch flush: stored=%d pending=%d", g.Records, sensor.Pending())
	}
}
