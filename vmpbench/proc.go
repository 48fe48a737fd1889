package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vmp/internal/simclock"
)

// daemon is one vmpd process under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result; read only after done
}

// startVMPD launches vmpd on a free loopback port with args and waits
// until /healthz answers. It returns the daemon and the time from
// launch to the first healthy answer. vmpd opens its listener only
// after WAL replay and the first publish, so a healthy answer means the
// replayed history is being served.
func startVMPD(ctx context.Context, clk simclock.Clock, bin, logPath string, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := clk.Now()
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written
		return nil, 0, fmt.Errorf("start vmpd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		_ = logf.Close() // the log is diagnostic only
		close(d.done)
	}()
	setup, err := d.waitHealthy(ctx, clk, start)
	if err != nil {
		_ = d.stop() // the health failure is the error worth reporting
		return nil, 0, fmt.Errorf("%w (log: %s)", err, logPath)
	}
	return d, setup, nil
}

// waitHealthy polls /healthz every 250 µs until it answers 200, the
// process exits, or 60 s pass.
func (d *daemon) waitHealthy(ctx context.Context, clk simclock.Clock, start time.Time) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	for clk.Now().Sub(start) < time.Minute {
		select {
		case <-d.done:
			return 0, fmt.Errorf("vmpd exited during boot: %v", d.err)
		default:
		}
		if resp, err := c.Get(d.url + "/healthz"); err == nil {
			_ = resp.Body.Close() // only the status matters
			if resp.StatusCode == http.StatusOK {
				return clk.Now().Sub(start), nil
			}
		}
		if err := simclock.Wait(ctx, 250*time.Microsecond); err != nil {
			return 0, err
		}
	}
	return 0, errors.New("vmpd never became healthy")
}

func (d *daemon) base() string { return d.url }

// quiesce collects the harness's heap and then holds its garbage
// collector off until endTimed: the generator shares the machine's
// cores with vmpd, and a collection over the set-up data it holds would
// show up as latency that is not the plane's.
func (d *daemon) quiesce() {
	runtime.GC()
	debug.SetGCPercent(-1)
}

// beginTimed resets the daemon's peak RSS.
func (d *daemon) beginTimed() error {
	return resetPeakRSS(d.cmd.Process.Pid)
}

func (d *daemon) endTimed() (float64, error) {
	debug.SetGCPercent(100)
	return peakRSSMB(d.cmd.Process.Pid)
}

// stop sends SIGTERM, waits up to 30 s for a clean drain, then kills
// the process; either way it returns only after the process is reaped.
// A nonzero exit after SIGTERM is an error.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a process that already exited is reaped below
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
	}
	_ = d.cmd.Process.Kill() // last resort; Wait reports the outcome
	<-d.done
	return errors.New("vmpd ignored SIGTERM and was killed")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// resetPeakRSS restarts the kernel's VmHWM accounting for pid, so a
// later read covers only what follows.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads pid's VmHWM (peak resident set size) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read side
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
