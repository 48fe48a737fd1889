package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"

	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// ensureSlice returns the path of the vmpgen dataset slice for seed at
// stride, generating it on first use. Slices are cached under dataDir
// because generation is deterministic per (seed, stride, vmpgen build);
// the cache key carries a digest of the vmpgen binary, so a checkout
// whose vmpgen differs never reads a slice another build made.
func ensureSlice(env *env, stride int) (string, error) {
	gen, err := binDigest(env.bin("vmpgen"))
	if err != nil {
		return "", err
	}
	path := filepath.Join(env.dataDir, fmt.Sprintf("slice-s%d-k%d-%s.jsonl", env.seed, stride, gen))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	cmd := exec.Command(env.bin("vmpgen"), "-seed", fmt.Sprint(env.seed), "-stride", fmt.Sprint(stride), "-o", tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("vmpgen: %v: %s", err, bytes.TrimSpace(out))
	}
	return path, os.Rename(tmp, path)
}

// loaded keeps the slices this process has read, so a traced run's
// second pass does not parse its slice again. Callers do not modify
// the records.
var loaded = map[string][]telemetry.ViewRecord{}

// loadSlice reads a JSONL slice and returns it in canonical order,
// which is timestamp-first: a suffix of the result is the slice's
// newest records, in timestamp order.
func loadSlice(path string) ([]telemetry.ViewRecord, error) {
	if recs, ok := loaded[path]; ok {
		return recs, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read side
	recs, bad, err := telemetry.ScanJSONL(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if bad > 0 {
		return nil, fmt.Errorf("read %s: %d malformed lines", path, bad)
	}
	telemetry.CanonicalSort(recs)
	loaded[path] = recs
	return recs, nil
}

// chunk splits recs into consecutive batches of at most n records.
func chunk(recs []telemetry.ViewRecord, n int) [][]telemetry.ViewRecord {
	var out [][]telemetry.ViewRecord
	for len(recs) > 0 {
		k := min(n, len(recs))
		out = append(out, recs[:k:k])
		recs = recs[k:]
	}
	return out
}

// binaryBody encodes one batch as a binary wire frame.
func binaryBody(enc *wire.Encoder, batch []telemetry.ViewRecord) (request, error) {
	body, err := enc.AppendFrame(nil, batch)
	if err != nil {
		return request{}, err
	}
	return request{
		kind: opIngest, method: "POST", path: "/v1/views", body: body,
		ctype: wire.ContentTypeBinary, batch: batch, want: 202,
	}, nil
}

// jsonlGzipBody encodes one batch as gzip-compressed JSON lines, the
// form a publisher's sensor posts.
func jsonlGzipBody(batch []telemetry.ViewRecord) (request, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := telemetry.EncodeJSONL(zw, batch); err != nil {
		return request{}, err
	}
	if err := zw.Close(); err != nil {
		return request{}, err
	}
	return request{
		kind: opIngest, method: "POST", path: "/v1/views", body: buf.Bytes(),
		ctype: wire.ContentTypeJSONL, cenc: "gzip", batch: batch, want: 202,
	}, nil
}

// writeJSONL writes recs to path as JSON lines, the interchange format
// vmpd -load and vmpstudy -input read.
func writeJSONL(path string, recs []telemetry.ViewRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := telemetry.EncodeJSONL(w, recs); err != nil {
		_ = f.Close() // the encode error wins
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of src into a fresh dst, one level
// of subdirectories deep — the shape of a WAL directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// ensureHistoryWAL returns a WAL directory whose checkpoint holds hist,
// built on first use by booting vmpd -load over hist and shutting it
// down cleanly. The copy a run boots from is made outside any timing.
// The cache key carries digests of the vmpgen and vmpd binaries, so a
// build with another generator or checkpoint format makes its own.
func ensureHistoryWAL(ctx context.Context, e *env, hist []telemetry.ViewRecord) (string, error) {
	builds, err := binDigest(e.bin("vmpgen"), e.bin("vmpd"))
	if err != nil {
		return "", err
	}
	dir := filepath.Join(e.dataDir, fmt.Sprintf("history-s%d-k%d-n%d-%s", e.seed, serveStride, len(hist), builds))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	jsonl := filepath.Join(e.workDir, "history.jsonl")
	if err := writeJSONL(jsonl, hist); err != nil {
		return "", err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	d, _, err := startVMPD(ctx, e.clk, e.bin("vmpd"), filepath.Join(e.workDir, "vmpd-history.log"),
		"-wal-dir", tmp, "-wal-fsync", "off", "-epoch", "24h", "-trace-depth", "0", "-load", jsonl)
	if err != nil {
		return "", fmt.Errorf("build history checkpoint: %w", err)
	}
	if err := d.stop(); err != nil {
		return "", fmt.Errorf("build history checkpoint: %w", err)
	}
	if err := os.Remove(jsonl); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// binDigest is a short SHA-256 over the contents of the given files.
func binDigest(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// syncDisk flushes every filesystem's dirty pages and pending metadata
// changes to disk and waits until that is done.
func syncDisk() { syscall.Sync() }
