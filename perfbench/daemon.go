package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon is one melserved process started with the default flags plus
// loopback listeners (and -content for content workloads).
type Daemon struct {
	cmd *exec.Cmd
	// Addr is the scan listener, Metrics the HTTP sidecar.
	Addr, Metrics string
	exited        chan struct{}
	waitErr       error
}

// StartDaemon execs melserved and returns once both listeners are up.
func StartDaemon(bin string, contentScans bool) (*Daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
	if contentScans {
		args = append(args, "-content")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even when the
	// benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &Daemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		// Reads the banner, then drains stdout until the daemon exits;
		// Wait may only run once every read is done.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "melserved: serving on "); ok {
				d.Addr = a
			}
			if a, ok := strings.CutPrefix(line, "melserved: metrics on http://"); ok {
				d.Metrics = strings.TrimSuffix(a, "/metrics")
				close(ready) // the metrics line is the last banner line
			}
		}
		_, _ = io.Copy(io.Discard, out)
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("melserved exited during start-up: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		d.Stop()
		return nil, errors.New("melserved did not report its listeners within 30s")
	}
}

// Stop terminates the daemon and waits for it to exit: SIGTERM first,
// SIGKILL after five seconds.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// CPU returns the CPU time the daemon's threads have run so far: the
// sum of their scheduler run times from /proc/<pid>/task/*/schedstat,
// which counts in nanoseconds where utime and stime count in ticks.
func (d *Daemon) CPU() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", d.cmd.Process.Pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// PeakRSS returns the daemon's VmHWM in bytes.
func (d *Daemon) PeakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Counters scrapes the daemon's counters and gauges from /debug/vars.
func (d *Daemon) Counters() (Counters, error) {
	resp, err := http.Get("http://" + d.Metrics + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	c := make(Counters, len(snap))
	for _, m := range snap {
		c[m.Name] = m.Value
	}
	return c, nil
}

// Counters is one scrape of the daemon's registry, by metric name.
type Counters map[string]float64

// Sub returns the per-name difference c - prev.
func (c Counters) Sub(prev Counters) Counters {
	out := make(Counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// Ratio returns c[num]/c[den], zero when the denominator is.
func (c Counters) Ratio(num, den string) float64 {
	if c[den] == 0 {
		return 0
	}
	return c[num] / c[den]
}
