package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// tiny shrinks a workload for tests: few distinct payloads, same shape.
func tiny(w Workload) Workload {
	w.Distinct = min(w.Distinct, 48)
	if w.Size > 4<<10 {
		w.Distinct = 8
	}
	return w
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			a, err := NewInputs(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewInputs(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewInputs(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest() != b.Digest() {
				t.Error("same seed gave different inputs or expectations")
			}
			if a.Digest() == c.Digest() {
				t.Error("different seeds gave identical inputs")
			}
			for i, p := range a.Payloads {
				if p.Wrap == "" && len(p.Data) != w.Size {
					t.Fatalf("payload %d is %d bytes, want %d", i, len(p.Data), w.Size)
				}
			}
		})
	}
}

// TestBenchmarkManifest holds BENCHMARK.json to the metric and workload
// definitions the benchmark prints.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists exactly the workloads --workload all runs.
	listed := manifestWorkloads()
	if len(man.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark %d", len(man.Workloads), len(listed))
	}
	for i, mw := range man.Workloads {
		if w := listed[i]; mw.Name != w.Name || mw.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %s %q, benchmark %s %q", i, mw.Name, mw.Why, w.Name, w.Why)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(man.EndToEnd), len(endToEnd))
	}
	for i, m := range man.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	// None of the listed workloads scans content, so the content-only
	// layer metrics are left out.
	layers := layerMetrics(Workload{})
	if len(man.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(man.PerLayer), len(layers))
	}
	for i, m := range man.PerLayer {
		d := layers[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// buildDaemon compiles melserved for the smoke tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "melserved")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/melserved").CombinedOutput()
	if err != nil {
		t.Fatalf("build melserved: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeWorkloads runs every workload at a tiny size against a real
// daemon, untraced, and one traced.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	bin := buildDaemon(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && !w.Hot {
				continue
			}
			w := tiny(w)
			w.Rate = min(w.Rate, 500)
			r, err := runWorkload(runConfig{W: w, Seed: 3, Seconds: time.Second, Trace: traced, Daemon: bin})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			defs := endToEnd
			if traced {
				defs = layerMetrics(w)
			}
			for _, m := range defs {
				v, ok := r.metrics[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v, present %v", w.Name, m.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
			if r.attempted == 0 {
				t.Errorf("%s: no requests attempted", w.Name)
			}
			// Every wrong verdict must be a planted worm the in-process
			// reference misses too; the daemon never disagrees with it.
			if r.check.wrong != r.check.missedWorms || r.in.RefMismatches != 0 {
				t.Errorf("%s: %d wrong verdicts, %d of them in-process misses, %d reference mismatches",
					w.Name, r.check.wrong, r.check.missedWorms, r.in.RefMismatches)
			}
			if traced && r.metrics["server.cache_hit_ratio"] < 0.9 {
				t.Errorf("%s: cache hit ratio %v, want about 1", w.Name, r.metrics["server.cache_hit_ratio"])
			}
		}
	}
}

// stalledServer answers every scan with a benign verdict, but holds all
// answers until release.
func stalledServer(t *testing.T, release time.Time) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				for {
					_, id, _, err := server.ReadFrame(br, 1<<20)
					if err != nil {
						return
					}
					time.Sleep(time.Until(release))
					// A MsgVerdict frame: length, type, id, then flags,
					// MEL, BestStart and the threshold, all zero.
					frame := binary.BigEndian.AppendUint32(nil, 1+8+17)
					frame = append(frame, server.MsgVerdict)
					frame = binary.BigEndian.AppendUint64(frame, id)
					frame = append(frame, make([]byte, 17)...)
					if _, err := bw.Write(frame); err != nil || bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopCountsFromDueTime stalls the server long enough that the
// generator itself falls behind (its in-flight bound fills), and checks
// that every request due during the stall carries the whole wait in its
// latency: counted from the due time, not from when it was finally sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		rate  = 5000.0
		stall = 200 * time.Millisecond
	)
	in := &Inputs{
		W:        Workload{Name: "fake", Size: 64},
		Payloads: []Payload{{Data: make([]byte, 64)}},
		Expect:   []core.Verdict{{}},
		Order:    []int32{0},
	}
	release := time.Now().Add(stall)
	cs, err := dial(stalledServer(t, release))
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(cs)
	d := &driver{in: in, conns: cs, seq: new(atomic.Uint64)}
	p := d.openLoop(rate, stall+100*time.Millisecond, 1)

	if p.errors() != 0 || len(p.mismatches) != 0 {
		t.Fatalf("%d errors, %d mismatches", p.errors(), len(p.mismatches))
	}
	var during int
	var maxLate time.Duration
	for _, s := range p.samples {
		due := p.start.Add(s.due)
		if !due.Before(release) {
			continue
		}
		during++
		maxLate = max(maxLate, s.sent-s.due)
		if want := release.Sub(due) - time.Millisecond; s.latency() < want {
			t.Errorf("request due %v before release has latency %v, want >= %v", release.Sub(due), s.latency(), want)
		}
	}
	if want := int(rate * stall.Seconds() / 2); during < want {
		t.Errorf("%d requests due during the stall, want >= %d", during, want)
	}
	if maxLate < stall/4 {
		t.Errorf("generator at most %v late; the stall should have held it back past its in-flight bound", maxLate)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []time.Duration{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantileF([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); q != 9 {
		t.Errorf("float p90 = %v, want 9", q)
	}
}

// TestWindowCPUPerMB checks that each window's CPU time is set against
// the bytes completed inside it, and that the cheapest windows are the
// ones reported.
func TestWindowCPUPerMB(t *testing.T) {
	start := time.Now()
	p := &phase{start: start}
	// Twenty windows of 100 ms; window k completes k+1 MB and costs
	// 10 ms of daemon CPU, so its cost is 10/(k+1) ms/MB.
	var cs []cpuSample
	for k := 0; k <= 20; k++ {
		cs = append(cs, cpuSample{at: start.Add(time.Duration(k) * 100 * time.Millisecond), cpu: time.Duration(k) * 10 * time.Millisecond})
	}
	for k := 0; k < 20; k++ {
		for j := 0; j <= k; j++ {
			done := time.Duration(k)*100*time.Millisecond + time.Duration(j+1)*time.Millisecond
			p.samples = append(p.samples, sample{size: 1e6, out: answered, done: done})
		}
	}
	p.samples = append(p.samples, sample{size: 1e6, out: shed, done: 50 * time.Millisecond})
	if got, want := windowCPUPerMB(p, cs), 10.0/19; math.Abs(got-want) > 1e-9 {
		t.Errorf("windowCPUPerMB = %v, want %v (the second cheapest of 20 windows)", got, want)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"--workload", "nope", "--daemon", "x"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--trace", "2", "--daemon", "x"}, &out, &errOut); code == 0 {
		t.Error("--trace 2 accepted")
	}
	if code := run([]string{"--workload", "serve_hot_4k", "--daemon", filepath.Join(t.TempDir(), "missing")}, &out, &errOut); code == 0 {
		t.Error("missing daemon binary accepted")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("a failed run printed a result line")
	}
}
