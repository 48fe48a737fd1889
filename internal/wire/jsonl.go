package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"vmp/internal/telemetry/record"
)

// MaxLineBytes is the largest JSONL line the wire-level ingest path
// accepts. bufio.Scanner's default cap is 64 KiB, which a record with a
// long CDN list or bitrate ladder can exceed; every JSONL scanner in
// the module shares this limit so a long line is a surfaced scan
// error, never a silent truncation.
const MaxLineBytes = 1 << 20

// ScanJSONL reads JSON-lines view records from r with the module-wide
// MaxLineBytes line cap. Blank lines are skipped; lines that fail to
// parse or lack a publisher are counted in bad, not returned. A
// non-nil err (an oversized line or a transport read error) means the
// stream was cut short: batch holds the records scanned up to that
// point and the caller decides whether to keep them.
func ScanJSONL(r io.Reader) (batch []record.ViewRecord, bad int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec record.ViewRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Publisher == "" {
			bad++
			continue
		}
		batch = append(batch, rec)
	}
	return batch, bad, sc.Err()
}

// EncodeJSONL writes records to w as JSON lines.
func EncodeJSONL(w io.Writer, records []record.ViewRecord) error {
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("wire: encoding record %d: %w", i, err)
		}
	}
	return nil
}

// DecodeJSONL reads JSON-lines records from r until EOF.
func DecodeJSONL(r io.Reader) ([]record.ViewRecord, error) {
	var out []record.ViewRecord
	dec := json.NewDecoder(r)
	for {
		var rec record.ViewRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("wire: decoding record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}
