// Package wal is the serving plane's durability subsystem: one
// append-only write-ahead log in front of internal/live's in-memory
// shard queues, so a crash between admission and the next epoch cannot
// lose a batch the daemon acknowledged.
//
// Each admitted batch is appended to the log's active segment as one
// length-prefixed, CRC32C-checksummed record carrying a log-wide
// monotonic sequence number and the batch itself as internal/wire
// binary frames, one per non-empty shard part — the same encoding the
// ingest wire path speaks, and the same monotonic-sequence framing
// discipline the obs event pipeline uses to make a truncated prefix
// detectable. The record is the batch's single commit point: its CRC
// covers every part, so replay delivers the batch whole or not at all.
// Appends are made durable by a configurable fsync policy: PolicyBatch
// syncs before the append returns (an acknowledged batch survives
// kill -9 and power loss), PolicyInterval group-commits on a
// background cadence (ack precedes durability by at most one
// interval), and PolicyOff never syncs (the OS page cache still
// survives a process kill, but not a kernel crash).
//
// Each published epoch folds the log forward: Commit writes the new
// generation as a checkpoint (atomically, via tmp + rename), then
// truncates every segment whose records the checkpoint covers. On
// boot, Replay streams the latest checkpoint and every surviving
// segment record back through the caller — in vmpd, the normal
// Engine.Ingest path, where telemetry.CanonicalSort makes replay
// order-insensitive — before the HTTP listener opens. A torn final
// record (the expected aftermath of a crash mid-append) stops replay
// cleanly at the last good sequence, logged and counted, never with a
// panic. DESIGN.md §11 specifies the formats and the crash matrix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sync"

	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: log closed")

// recordCap bounds the view records one segment record holds. Every
// ingest POST fits, so a batch is one record — one write() and one
// commit point; a larger batch (in practice only vmpd -load) spans
// consecutive records.
const recordCap = 1 << 14

// migrateHint is appended to Open's refusals of the per-shard layout
// older vmpd builds wrote.
const migrateHint = "per-shard WAL layout from an older vmpd: run the old binary with -wal-dir and -dump, then boot this one on an empty -wal-dir with -load"

// Policy selects when appended records are fsynced.
type Policy int

const (
	// PolicyBatch syncs the active segment before AppendBatch
	// returns: an acknowledged batch is durable against kill -9 and
	// power loss.
	PolicyBatch Policy = iota
	// PolicyInterval group-commits: appends return after write(), and
	// a background loop syncs the active segment every SyncEvery when
	// it is dirty. The acknowledgement-to-durability window is at most
	// one interval.
	PolicyInterval
	// PolicyOff never syncs. Appends still write() synchronously, so
	// the data survives a process kill in the OS page cache; a kernel
	// crash or power loss inside the cache window loses it.
	PolicyOff
)

// ParsePolicy parses the -wal-fsync flag vocabulary.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch":
		return PolicyBatch, nil
	case "interval":
		return PolicyInterval, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval, or off)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyBatch:
		return "batch"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	}
	return "unknown"
}

// Options parameterizes a Log. The zero value of every field gets a
// sensible default: PolicyBatch, 25 ms group-commit cadence, 16 MiB
// segments, the wall clock, a fresh registry, and a disabled tracer.
type Options struct {
	Dir          string         // log directory, created if absent
	Policy       Policy         // fsync policy
	SyncEvery    time.Duration  // group-commit cadence for PolicyInterval
	SegmentBytes int64          // active-segment rotation threshold
	Clock        simclock.Clock // time source for fsync latency
	Metrics      *obs.Registry  // counter/histogram destination
	Trace        *obs.Tracer    // span/event destination (nil = disabled)
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.Clock == nil {
		o.Clock = simclock.Wall()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Trace == nil {
		t := obs.NewTracer(o.Clock, 256)
		t.SetEnabled(false)
		o.Trace = t
	}
	return o
}

// segmentInfo is one segment file's place in the log. Records in a
// segment carry the contiguous sequences [first, last]; last < first
// means the segment is empty.
type segmentInfo struct {
	path  string
	first uint64
	last  uint64
}

// Log is a write-ahead log rooted at one directory. Append methods are
// safe for concurrent use with Sync, Commit, and Replay; the live
// engine additionally serializes AppendBatch and Bounds under its
// admission lock, which is what makes a Bounds reading coherent with
// the batches flushed into an epoch.
type Log struct {
	opts   Options
	dir    string
	clock  simclock.Clock
	tracer *obs.Tracer

	mu         sync.Mutex
	segs       []segmentInfo // closed segments then the active one, ascending
	f          *os.File      // active segment handle; nil when no segment is open
	size       int64         // bytes written to the active segment
	dirty      bool          // written since the last fsync
	nextSeq    uint64
	ckpts      []ckptInfo // on-disk checkpoints, ascending by id
	nextCkptID uint64
	cpBound    uint64 // bound of the latest checkpoint; meaningful when ckpts is non-empty
	closed     bool

	quit chan struct{} // stops the PolicyInterval sync loop
	done chan struct{}

	enc *wire.Encoder
	buf []byte //vmp:scratch record encode buffer, reused across appends

	appended  *obs.Counter // wal_appended_total: records appended
	replayed  *obs.Counter // wal_replayed_total: records replayed
	truncated *obs.Counter // wal_truncated_total: log entries (sequences) truncated
	fsyncs    *obs.Counter // wal_fsync_total: fsync syscalls issued
	tornTails *obs.Counter // wal_torn_tail_total: torn tails recovered
	errors    *obs.Counter // wal_errors_total: background sync failures
	fsyncSec  *obs.Histogram
	backSegs  *obs.Gauge // wal_backlog_segments: live segment files
	backBytes *obs.Gauge // wal_backlog_bytes: bytes not yet folded into a checkpoint
}

// Open opens (creating if needed) the log rooted at opts.Dir: it
// loads the latest checkpoint's bound, indexes the segments, scans the
// final segment to find the last durable sequence — truncating any
// torn tail left by a crash mid-append, so new appends never land
// after garbage — and starts the group-commit loop when the policy
// asks for one. Open does not replay; call Replay before the first
// append to stream surviving records back.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:      opts,
		dir:       opts.Dir,
		clock:     opts.Clock,
		tracer:    opts.Trace,
		nextSeq:   1,
		enc:       wire.NewEncoder(),
		appended:  opts.Metrics.Counter("wal_appended_total"),
		replayed:  opts.Metrics.Counter("wal_replayed_total"),
		truncated: opts.Metrics.Counter("wal_truncated_total"),
		fsyncs:    opts.Metrics.Counter("wal_fsync_total"),
		tornTails: opts.Metrics.Counter("wal_torn_tail_total"),
		errors:    opts.Metrics.Counter("wal_errors_total"),
		fsyncSec:  opts.Metrics.Histogram("wal_fsync_seconds", []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5}),
		backSegs:  opts.Metrics.Gauge("wal_backlog_segments"),
		backBytes: opts.Metrics.Gauge("wal_backlog_bytes"),
	}
	if err := l.scanDir(); err != nil {
		return nil, err
	}
	if opts.Policy == PolicyInterval {
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scanDir indexes checkpoints and segments, removes leftover
// checkpoint temp files, recovers the final segment's tail, and
// resumes the sequence at max(tail, checkpoint bound) + 1.
func (l *Log) scanDir() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(l.dir, name)
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			return fmt.Errorf("wal: %s holds a %s", path, migrateHint)
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tmp"):
			// A crash mid-checkpoint leaves a temp file; the rename
			// never happened, so it holds nothing the log needs.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: removing stale %s: %w", name, err)
			}
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 16, 64)
			if err != nil {
				return fmt.Errorf("wal: bad checkpoint name %q", name)
			}
			l.ckpts = append(l.ckpts, ckptInfo{id: id, path: path})
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64)
			if err != nil {
				return fmt.Errorf("wal: bad segment name %q", name)
			}
			l.segs = append(l.segs, segmentInfo{path: path, first: first})
		}
	}
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i].id < l.ckpts[j].id })
	if n := len(l.ckpts); n > 0 {
		l.nextCkptID = l.ckpts[n-1].id + 1
		bound, err := loadCheckpointBound(l.ckpts[n-1].path)
		if err != nil {
			return err
		}
		l.cpBound = bound
	}

	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	for i := range l.segs {
		if i+1 < len(l.segs) {
			// Closed segments hold the contiguous run up to the next
			// segment's first sequence; replay verifies record by record.
			if l.segs[i+1].first <= l.segs[i].first {
				return fmt.Errorf("wal: segments %s and %s overlap", l.segs[i].path, l.segs[i+1].path)
			}
			l.segs[i].last = l.segs[i+1].first - 1
			continue
		}
		last, err := l.recoverTail(l.segs[i])
		if err != nil {
			return err
		}
		l.segs[i].last = last
		l.nextSeq = last + 1
	}
	if l.nextSeq <= l.cpBound {
		// Every segment was truncated past this point; sequences must
		// stay above the checkpoint bound or replay would filter fresh
		// appends out.
		l.nextSeq = l.cpBound + 1
	}
	return nil
}

// recoverTail scans the final segment's records (CRC-checked, frames
// skipped), physically truncates a torn tail away — counted and logged
// as a wal_torn_tail event — and returns the last durable sequence
// (first-1 when empty).
func (l *Log) recoverTail(seg segmentInfo) (uint64, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	last := seg.first - 1
	torn, err := DecodeSegment(data, nil, func(seq uint64, _ []record.ViewRecord) error {
		if seq != last+1 {
			return fmt.Errorf("wal: %s: sequence %d after %d", seg.path, seq, last)
		}
		last = seq
		return nil
	})
	if err != nil {
		return 0, err
	}
	if torn != nil {
		if err := os.Truncate(seg.path, torn.Off); err != nil {
			return 0, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
		}
		l.tornTails.Add(1)
		l.tracer.Emit("wal_torn_tail", obs.KV("offset", torn.Off), obs.KV("last_seq", int64(last)))
	}
	return last, nil
}

// Bounds returns the last sequence assigned, as the one-element slice
// live.WAL carries. The live engine reads it under its admission lock
// while cutting an epoch, so the result is exact: every record with
// seq <= Bounds()[0] is in the generation being published, and nothing
// beyond is.
func (l *Log) Bounds() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []uint64{l.nextSeq - 1}
}

// AppendBatch durably appends the batch whose non-empty parts are
// parts, as one segment record with one wire frame per part (a batch
// over recordCap records spans consecutive records). Under
// PolicyBatch the active segment is fsynced before the call returns.
// An error means nothing should be acknowledged: the caller rejects
// the batch and the client retries it whole.
//
//vmp:hotpath
func (l *Log) AppendBatch(parts [][]record.ViewRecord, parent obs.SpanID) error {
	sp := l.tracer.Start("wal.append", parent)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		sp.End(obs.KV("closed", 1))
		return ErrClosed
	}
	total, err := l.appendLocked(parts)
	if err == nil && l.opts.Policy == PolicyBatch {
		err = l.syncLocked(sp.ID())
	}
	l.mu.Unlock()
	if err != nil {
		sp.End(obs.KV("error", 1))
		return err
	}
	l.appended.Add(total)
	sp.End(obs.KV("records", total))
	return nil
}

// appendLocked encodes parts into segment records of at most recordCap
// view records and writes each. Caller holds mu.
//
//vmp:hotpath
func (l *Log) appendLocked(parts [][]record.ViewRecord) (int64, error) {
	total := int64(0)
	buf := l.buf[:0]
	room := recordCap
	for _, part := range parts {
		for len(part) > 0 {
			if len(buf) == 0 {
				buf = beginRecord(buf, l.nextSeq)
			}
			n := min(len(part), room)
			var err error
			if buf, err = l.enc.AppendFrame(buf, part[:n]); err != nil {
				l.buf = buf[:0]
				return 0, err
			}
			part = part[n:]
			room -= n
			total += int64(n)
			if room == 0 {
				if err := l.writeRecord(buf); err != nil {
					return 0, err
				}
				buf, room = l.buf[:0], recordCap
			}
		}
	}
	if len(buf) > 0 {
		if err := l.writeRecord(buf); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// writeRecord seals the record begun in buf and lands it in the active
// segment with a single write(), first starting a fresh segment when
// none is open or the active one has reached SegmentBytes. Caller
// holds mu.
//
//vmp:hotpath
func (l *Log) writeRecord(buf []byte) error {
	l.buf = buf[:0]
	if err := sealRecord(buf); err != nil {
		return err
	}
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.startSegment(); err != nil { //vmp:alloc segment create/rotate is amortized over SegmentBytes of appends
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		// A partial write leaves a torn tail; recovery on the next
		// open truncates it, so the sequence is not consumed.
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segs[len(l.segs)-1].last = l.nextSeq
	l.nextSeq++
	l.size += int64(len(buf))
	l.dirty = true
	return nil
}

// startSegment closes the active segment, if any — syncing what the
// policy has not yet — and opens a fresh one named after the next
// sequence the log will assign. Caller holds mu.
func (l *Log) startSegment() error {
	if l.f != nil {
		if l.opts.Policy != PolicyOff {
			if err := l.syncLocked(0); err != nil {
				return err
			}
		}
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%016x.wal", l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = 0
	l.segs = append(l.segs, segmentInfo{path: path, first: l.nextSeq, last: l.nextSeq - 1})
	return nil
}

// syncLocked fsyncs the active segment under a wal.fsync span when it
// holds unsynced appends. Caller holds mu.
//
//vmp:hotpath
func (l *Log) syncLocked(parent obs.SpanID) error {
	if l.f == nil || !l.dirty {
		return nil
	}
	sp := l.tracer.Start("wal.fsync", parent)
	start := l.clock.Now()
	if err := l.f.Sync(); err != nil {
		sp.End(obs.KV("error", 1))
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.fsyncs.Add(1)
	l.fsyncSec.Observe(l.clock.Now().Sub(start).Seconds())
	sp.End()
	return nil
}

// Backlog reports the log's replay debt: how many segment files exist
// (active and closed) and how many bytes they hold — everything a
// boot-time Replay would have to stream before the listener opens. The
// active segment reports its tracked write offset; closed segments are
// stat'ed, and one that cannot be stat'ed (racing a concurrent Commit
// truncation) contributes its file to the count but no bytes.
func (l *Log) Backlog() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, seg := range l.segs {
		segments++
		if l.f != nil && i == len(l.segs)-1 {
			bytes += l.size
			continue
		}
		if fi, err := os.Stat(seg.path); err == nil {
			bytes += fi.Size()
		}
	}
	return segments, bytes
}

// PublishGauges refreshes the log's backlog gauges from Backlog. The
// obs sampler calls it on every sampling pass.
func (l *Log) PublishGauges() {
	segs, bytes := l.Backlog()
	l.backSegs.Set(int64(segs))
	l.backBytes.Set(bytes)
}

// Sync forces an fsync of the active segment if it is dirty — the
// group-commit step, also usable directly by tests and shutdown paths.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(0)
}

// syncLoop is the PolicyInterval group-commit daemon: every SyncEvery
// it fsyncs whatever the appenders dirtied. The ticker is operational
// heartbeat, not study time, so the real ticker is correct here —
// determinism-sensitive tests call Sync directly instead.
func (l *Log) syncLoop() {
	defer close(l.done)
	tick := time.NewTicker(l.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-tick.C:
			if err := l.Sync(); err != nil {
				// The data is still in the OS cache and the next tick
				// retries; count it so operators see a sick disk.
				l.errors.Add(1)
				l.tracer.Emit("wal_sync_error")
			}
		}
	}
}

// Close stops the group-commit loop, syncs the active segment if it is
// dirty, and closes it. The log directory remains valid for a later
// Open. Close is idempotent; appends after it return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.quit != nil {
		close(l.quit)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.opts.Policy != PolicyOff {
		err = l.syncLocked(0)
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: closing segment: %w", cerr)
	}
	l.f = nil
	return err
}
