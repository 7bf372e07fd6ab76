package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; Moves and On are the per-layer map of
// which end-to-end metric a layer metric should move, on which
// workloads (and where it should stay flat).
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
	// ContentOnly marks a layer metric that only content scans exercise:
	// it reads zero on every other workload, so it is printed in the
	// table but left out of the result line and BENCHMARK.json except
	// on a content workload.
	ContentOnly bool
}

// endToEnd are the gated end-to-end metrics of an untraced run: the
// ones that stay steady from run to run on a shared 2-vCPU host.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "cpu_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "setup_rss_mb", Unit: "MB", Better: "lower"},
}

// reportedEndToEnd are end-to-end figures printed with the gated ones
// but not gated. mb_per_s is wall-clock throughput of a load generator
// and a daemon sharing two vCPUs: when the hypervisor steals a quarter
// of the host's time, serve_hot_4k's halves, so its spread over a set
// of runs passes any bound a regression gate can use. cpu_ms_per_mb,
// the daemon's scheduler run time per MB, leaves stolen time out and
// carries the code's cost. The open-loop latency percentiles follow
// the host's multi-millisecond stalls, so their run-to-run spread is
// wider than any usable bound too. rss_peak_mb, the daemon's
// lifetime VmHWM, is the maximum over every garbage-collection cycle of
// the run, so it moves with where a few of them fell (an interquartile
// spread near 0.2 of the median on serve_text_64k); setup_rss_mb, the
// footprint once ready to serve, is the gated memory figure.
// error_ratio and wrong_verdicts read zero on a healthy run and are
// carried in the result's failed and correct fields.
var reportedEndToEnd = []metricDef{
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "p99_us", Unit: "us", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wrong_verdicts", Unit: "count", Better: "lower"},
}

// perLayer are the traced run's metrics, in table order.
var perLayer = []metricDef{
	{"mel.records_us_per_kb", "us/KB", "lower", "mb_per_s, cpu_ms_per_mb", "serve_text_64k, serve_text_4k (serve_hot_4k)", false},
	{"mel.dp_us_per_kb", "us/KB", "lower", "mb_per_s, cpu_ms_per_mb", "serve_text_64k most (serve_hot_4k)", false},
	{"core.threshold_us", "us", "lower", "p50_us", "serve_text_4k", false},
	{"content.triage_us", "us", "lower", "mb_per_s, p50_us", "serve_content_4k (all others)", false},
	{"content.triage_clear_ratio", "ratio", "higher", "cpu_ms_per_mb", "serve_content_4k", false},
	{"content.decode_us.gzip", "us", "lower", "p99_us, mb_per_s", "serve_content_4k", true},
	{"content.decode_us.base64", "us", "lower", "p99_us, mb_per_s", "serve_content_4k", true},
	{"content.decode_us.qp", "us", "lower", "p99_us, mb_per_s", "serve_content_4k", true},
	{"content.decode_us.percent", "us", "lower", "p99_us, mb_per_s", "serve_content_4k", true},
	{"content.decode_us.chunked", "us", "lower", "p99_us, mb_per_s", "serve_content_4k", true},
	{"content.decode_allocs", "count", "lower", "cpu_ms_per_mb, rss_peak_mb", "serve_content_4k", false},
	{"content.decode_alloc_kb", "KB", "lower", "cpu_ms_per_mb, rss_peak_mb", "serve_content_4k", false},
	{"content.mel_view_ratio", "ratio", "lower", "mb_per_s", "serve_content_4k", true},
	{"content.pipeline_residual_us", "us", "lower", "p50_us", "serve_content_4k", false},
	{"content.depth_shed_ratio", "ratio", "lower", "p99_us, wrong_verdicts", "serve_content_4k", true},
	{"server.wire_us", "us", "lower", "p50_us", "serve_hot_4k (serve_text_64k)", false},
	{"server.pool_handoff_us", "us", "lower", "p50_us, mb_per_s", "serve_hot_4k, serve_text_4k", false},
	{"server.cache_hit_us", "us", "lower", "p50_us", "serve_hot_4k", false},
	{"server.cache_hit_ratio", "ratio", "higher", "workload property", "about 1 on serve_hot_4k, about 0 elsewhere", false},
	{"server.queue_wait_p50_us", "us", "lower", "p99_us", "all", false},
	{"server.queue_wait_p99_us", "us", "lower", "p99_us", "all", false},
	{"server.shed_ratio", "ratio", "lower", "error_ratio", "all", false},
	{"net.rtt_us", "us", "lower", "p50_us", "serve_hot_4k", false},
	{"events.record_ns", "ns", "lower", "p50_us", "serve_hot_4k", false},
	{"gen_late_p50_us", "us", "lower", "validity of p50_us", "all", false},
	{"gen_late_p99_us", "us", "lower", "validity of p99_us", "all", false},
	{"tracing_overhead_ratio", "ratio", "higher", "-", "all", false},
	{"service_p50_us", "us", "lower", "p50_us", "all", false},
	{"residual_us", "us", "lower", "reported, not gated (target under 15% of service)", "all", false},
	{"residual_share", "ratio", "lower", "reported, not gated (target under 0.15)", "all", false},
}

// layerMetrics are the per-layer metrics of w's result line: the
// content-only ones only on a content workload.
func layerMetrics(w Workload) []metricDef {
	var out []metricDef
	for _, m := range perLayer {
		if !m.ContentOnly || w.Content {
			out = append(out, m)
		}
	}
	return out
}

// provenance identifies where and on what a result was measured.
type provenance struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	// StealShare is the share of the host's CPU time stolen by the
	// hypervisor while the workload ran: a run-to-run drift in speed
	// with a rising steal share is the host's, not the code's.
	StealShare float64 `json:"steal_share"`
	// HostSHA256 is the host's single-core SHA-256 rate in MB/s, taken
	// just before the workload: a reference that moves with the host's
	// speed and not with the benchmarked code.
	HostSHA256 float64 `json:"host_sha256_mb_per_s"`
}

// newProvenance fingerprints the host and the source tree in the
// working directory, the repository root.
func newProvenance(seed uint64, seconds float64, trace int) provenance {
	p := provenance{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git history (an exported tree) keeps
	// "unknown"; the source digest still identifies the code.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// hostCPU returns the stolen and the total CPU time of the host, in
// ticks, from the first line of /proc/stat; zeros where it is missing.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// hostSpeed hashes a 1 MiB buffer with SHA-256 for about 200 ms on one
// goroutine and returns the rate in MB/s. Neighbours on a shared host
// slow it down as they slow the daemon, so a drift between two sets of
// runs of the same code shows here too.
func hostSpeed() float64 {
	buf := make([]byte, 1<<20)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		sha256.Sum256(buf)
		n++
	}
	return float64(n*len(buf)) / 1e6 / time.Since(t0).Seconds()
}

// sourceDigest hashes the paths and contents of every Go source and
// go.mod file under root, skipping hidden directories; the first 16 hex
// digits are returned.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and then the JSON result line.
func (r *result) print(w io.Writer, prov provenance) {
	cfg := r.cfg
	fmt.Fprintf(w, "== perfbench %s seed %d seconds %g trace %d\n", cfg.W.Name, cfg.Seed, cfg.Seconds.Seconds(), boolInt(cfg.Trace))
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", pj)
	for _, p := range r.props {
		fmt.Fprintf(w, "property %s %s (%s)\n", p.name, p.value, p.note)
	}
	for _, p := range r.phases {
		fmt.Fprintf(w, "phase %s\n", p)
	}
	fmt.Fprintf(w, "verdicts checked %d wrong %d (planted worms missed in-process too: %d) shed_fallbacks %d reference %d/%d agree\n",
		r.checked, r.check.wrong, r.check.missedWorms, r.check.fallbacks, r.in.RefChecked-r.in.RefMismatches, r.in.RefChecked)

	defs := endToEnd
	if cfg.Trace {
		defs = layerMetrics(cfg.W)
		r.printLayers(w)
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "metric %s %s %s\n", m.Name, fmtValue(r.metrics[m.Name]), m.Unit)
		}
		for _, m := range reportedEndToEnd {
			fmt.Fprintf(w, "metric %s %s %s (not gated)\n", m.Name, fmtValue(r.e2eExtra[m.Name]), m.Unit)
		}
	}
	out := jsonResult{
		Correct:   r.ok(),
		Attempted: max(r.attempted, 1),
		Failed:    r.errs + r.wrong(),
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range defs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}

// printLayers writes the per-layer table; it ends in the request
// identity and the residual row.
func (r *result) printLayers(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tvalue\tunit\tshould move\ton (flat on)")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.Name, fmtValue(r.metrics[m.Name]), m.Unit, m.Moves, m.On)
	}
	tw.Flush()
	m := r.metrics
	fmt.Fprintf(w, "service_p50_us %s = net.rtt_us %s + server.cache_hit_us %s + (1 - hit %s) x scan_us %s + residual_us %s\n",
		fmtValue(m["service_p50_us"]), fmtValue(m["net.rtt_us"]), fmtValue(m["server.cache_hit_us"]),
		fmtValue(r.hitRatio), fmtValue(r.scanUs), fmtValue(m["residual_us"]))
	fmt.Fprintf(w, "residual_us %s (%.1f%% of service_p50_us)\n", fmtValue(m["residual_us"]), 100*m["residual_share"])
}

// fmtValue prints a metric value with its significant digits.
func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// boolInt is 1 for true.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
