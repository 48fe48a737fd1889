package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// runRecord travels with every result: what was run, on what, and how
// far the numbers can be trusted.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   map[string]any `json:"traced,omitempty"`
	Revision string         `json:"revision"`
	Source   string         `json:"source_sha256"`
	Machine  machine        `json:"machine"`
	Host     hostLoad       `json:"host"`
	Valid    bool           `json:"valid"`
	Untraced map[string]any `json:"untraced"`
}

// machine is the fingerprint a number is only comparable within.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_fs"`
}

func newRunRecord(e *env, workload string, plain *runOutput) *runRecord {
	return &runRecord{
		Workload: workload,
		Seed:     e.seed,
		Seconds:  e.seconds,
		Revision: revision(e.root),
		Source:   sourceDigest(e.root),
		Machine: machine{
			CPU:        cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
			WALFS:      fsType(e.workDir),
		},
		Valid:    plain.valid,
		Untraced: plain.summary(),
	}
}

// revision is the checkout's git commit, or "unknown" outside a git
// work tree; the source digest identifies the code either way.
func revision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout
// outside the build directory, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "run.sh") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		h.Write([]byte(rel + "\x00"))
		h.Write([]byte(readFile(p)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }() // read side
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to the filesystems a WAL directory
// is likely to sit on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// hostLoad is how busy the machine's host was during the untraced pass.
// A shared virtual machine slows down when its neighbours are busy, and
// every metric here moves with it.
type hostLoad struct {
	StealShare float64 `json:"steal_share"` // CPU time the hypervisor gave to others during the pass
}

// stealLimit is the share of CPU time the host may steal during the
// untraced pass before the run is marked invalid: above it, timings
// measure the neighbours as much as the plane.
const stealLimit = 0.10

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	fields := strings.Fields(line)
	if len(fields) > 0 {
		fields = fields[1:] // the "cpu" label
	}
	// user nice system idle iowait irq softirq steal; the guest times
	// that may follow are already counted in user and nice.
	fields = fields[:min(8, len(fields))]
	var s cpuStat
	for i, f := range fields {
		v, _ := strconv.ParseUint(f, 10, 64) // a missing field reads 0
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealSince is the share of CPU time stolen since before.
func (s cpuStat) stealSince(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}
