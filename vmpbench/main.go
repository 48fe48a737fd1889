// Command vmpbench is the serving plane's benchmark. It drives the real
// vmpd binary with an open-loop load generator through one workload,
// checks every answer the plane gives against the offline pipeline,
// and prints the workload's end-to-end metrics. With -trace 1 it also
// replays the same schedule in-process through live.Engine, live.Server
// and the WAL, timing each layer from outside, and prints the
// per-layer metrics instead.
//
// It is normally run through run.sh, which builds vmpd, vmpgen and
// vmpstudy from the checkout first:
//
//	bash vmpbench/run.sh --workload ingest_durable --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// run record: revision, machine fingerprint, seed, sample counts, and
// how late the generator ran.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"vmp/internal/simclock"
)

// env is one benchmark run's configuration and scratch space. Every
// path lies inside the checkout.
type env struct {
	root    string // checkout root
	binDir  string // vmpd, vmpgen, vmpstudy built by run.sh
	dataDir string // per-seed dataset slices and history WALs, reused across runs
	workDir string // this run's WAL directories and logs, removed at exit
	seed    uint64
	seconds int
	clk     simclock.Clock
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "dataset seed handed to vmpgen")
		seconds  = flag.Int("seconds", 10, "length of the timed open-loop window")
		trace    = flag.Int("trace", 0, "1 = also replay the schedule in-process and report per-layer metrics")
		root     = flag.String("root", ".", "checkout root holding the built binaries under .bench_build")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "vmpbench: unknown workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vmpbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e, err := newEnv(*root, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(e.workDir) }() // scratch only

	res, rec, err := execute(ctx, e, w, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		return 1
	}
	if err := emit(os.Stdout, rec, res); err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		return 1
	}
	return 0
}

// newEnv checks that run.sh built the binaries and prepares the data
// and scratch directories under the checkout's .bench_build.
func newEnv(root string, seed uint64, seconds int) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(abs, ".bench_build")
	e := &env{
		root:    abs,
		binDir:  filepath.Join(build, "bin"),
		dataDir: filepath.Join(build, "data"),
		seed:    seed,
		seconds: seconds,
		clk:     simclock.Wall(),
	}
	for _, b := range []string{"vmpd", "vmpgen", "vmpstudy"} {
		if _, err := os.Stat(e.bin(b)); err != nil {
			return nil, fmt.Errorf("missing %s (build with run.sh): %w", b, err)
		}
	}
	if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
		return nil, err
	}
	if err := pruneData(e.dataDir, seed); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return nil, err
	}
	e.workDir, err = os.MkdirTemp(filepath.Join(build, "work"), "run-")
	return e, err
}

// pruneData removes the cached inputs of every seed but this one, so
// the cache holds one seed's slices and history (a few hundred MB)
// however many seeds a series of runs goes through.
func pruneData(dir string, seed uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	keep := fmt.Sprintf("-s%d-", seed)
	for _, ent := range entries {
		if !strings.Contains(ent.Name(), keep) {
			if err := os.RemoveAll(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// execute runs the workload against vmpd, and with traced also
// in-process, and assembles the result line and run record.
func execute(ctx context.Context, e *env, w workload, traced bool) (*result, *runRecord, error) {
	before := readCPUStat()
	plain, err := w.run(ctx, e, vmpdBooter(e, w), false)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := newRunRecord(e, w.name, plain)
	rec.Host = hostLoad{StealShare: readCPUStat().stealSince(before)}
	rec.Valid = rec.Valid && rec.Host.StealShare <= stealLimit
	res := &result{
		Correct:   plain.correct,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: plain.e2e[m.name], Unit: m.unit}
		}
		return res, rec, nil
	}
	var ip *inproc
	tr, err := w.run(ctx, e, inprocBooter(e, w, &ip), true)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	if ip == nil {
		return nil, nil, fmt.Errorf("%s traced: no in-process plane was booted", w.name)
	}
	layers, err := perLayer(e, plain, tr, ip)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	rec.Traced = tr.summary()
	res.Correct = plain.correct && tr.correct
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
	}
	return res, rec, nil
}

// emit prints the run record, then the result as the final line.
func emit(out *os.File, rec *runRecord, res *result) error {
	recLine, err := json.Marshal(map[string]any{"run_record": rec})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", recLine, resLine)
	return err
}
