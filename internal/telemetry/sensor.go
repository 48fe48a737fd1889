package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"vmp/internal/wire"
)

// Sensor is the client half: the monitoring library a publisher
// integrates with its video player (§3). It batches records and posts
// them to the serving plane's ingest endpoint (vmpd's /v1/views).
type Sensor struct {
	endpoint string
	client   *http.Client
	batch    []ViewRecord
	batchMax int
}

// NewSensor returns a sensor posting to endpoint (the server's
// /v1/views URL). batchMax bounds records per POST; values < 1 default
// to 100.
func NewSensor(endpoint string, client *http.Client, batchMax int) *Sensor {
	if client == nil {
		client = http.DefaultClient
	}
	if batchMax < 1 {
		batchMax = 100
	}
	return &Sensor{endpoint: endpoint, client: client, batchMax: batchMax}
}

// Report queues one view record, flushing if the batch is full.
func (s *Sensor) Report(rec ViewRecord) error {
	s.batch = append(s.batch, rec)
	if len(s.batch) >= s.batchMax {
		return s.Flush()
	}
	return nil
}

// Flush posts all queued records. It is a no-op on an empty batch. Any
// answer but 202 is an error and keeps the batch queued, so a later
// Flush resends it whole.
func (s *Sensor) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, s.batch); err != nil {
		return err
	}
	resp, err := s.client.Post(s.endpoint, "application/x-ndjson", &buf)
	if err != nil {
		return fmt.Errorf("telemetry: posting views: %w", err)
	}
	// Drain so the connection can be reused; neither the drain nor the
	// close can lose data we care about.
	defer func() { _ = resp.Body.Close() }()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("telemetry: server returned %s", resp.Status)
	}
	s.batch = s.batch[:0]
	return nil
}

// Pending returns the number of queued, unflushed records.
func (s *Sensor) Pending() int { return len(s.batch) }

// EncodeJSONL writes records to w as JSON lines.
func EncodeJSONL(w io.Writer, records []ViewRecord) error {
	return wire.EncodeJSONL(w, records)
}

// DecodeJSONL reads JSON-lines records from r until EOF.
func DecodeJSONL(r io.Reader) ([]ViewRecord, error) {
	return wire.DecodeJSONL(r)
}

// ScanJSONL reads JSON-lines view records from r with the module-wide
// wire.MaxLineBytes line cap. Blank lines are skipped; lines that fail
// to parse or lack a publisher are counted in bad, not returned. A
// non-nil err (an oversized line or a transport read error) means the
// stream was cut short: batch holds the records scanned up to that
// point and the caller decides whether to keep them.
func ScanJSONL(r io.Reader) (batch []ViewRecord, bad int, err error) {
	return wire.ScanJSONL(r)
}
