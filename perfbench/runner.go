package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry/tracing"
)

// runConfig is one workload run.
type runConfig struct {
	W       Workload
	Seed    uint64
	Seconds time.Duration
	Trace   bool
	Daemon  string
}

// Phase shares of the measured seconds.
const (
	closedShare = 0.7 // untraced run: closed loop, then open loop
	openShare   = 0.3
	// Traced run: alternating untraced/traced closed-loop blocks, a
	// traced open loop, then the in-process replay.
	tracedBlocks     = 4
	tracedBlockShare = 0.1
	tracedOpenShare  = 0.3
	replayShare      = 0.3
)

// warmupFor is the warm-up length for a run of d measured seconds.
func warmupFor(d time.Duration) time.Duration {
	return min(max(d/10, 200*time.Millisecond), time.Second)
}

// result is everything a workload run reports.
type result struct {
	cfg runConfig
	in  *Inputs
	// attempted counts requests in the measured phases; errs those that
	// got no verdict.
	attempted, errs int
	// checked counts every verdict compared, warm-up included.
	checked int
	check   verdictCheck
	// metrics are the end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), by name.
	metrics map[string]float64
	// e2eExtra are the reported but ungated end-to-end figures.
	e2eExtra map[string]float64
	props    []property
	phases   []string
	// hitRatio and scanUs are the residual terms of a traced run, kept
	// for the printed request identity.
	hitRatio, scanUs float64
}

// property is one measured workload property.
type property struct {
	name, value, note string
}

// ok reports whether every verdict was right and the expectation agreed
// with the reference explorer.
func (r *result) ok() bool {
	return r.check.wrong == 0 && r.in.RefMismatches == 0
}

// wrong is the run's wrong-verdict count, reference disagreements
// included.
func (r *result) wrong() int { return r.check.wrong + r.in.RefMismatches }

// scanOptions are the client options of the workload's untraced
// connections.
func scanOptions(w Workload) []client.Option {
	if w.Content {
		return []client.Option{client.WithContent()}
	}
	return nil
}

// startTimed starts a daemon and times it from exec to the first
// correct verdict, the probe's. It also returns the daemon's peak RSS
// at that point, in bytes: its footprint once ready to serve.
func startTimed(bin string, in *Inputs) (*Daemon, time.Duration, int64, error) {
	t0 := time.Now()
	d, err := StartDaemon(bin, in.W.Content)
	if err != nil {
		return nil, 0, 0, err
	}
	c, err := client.Dial(d.Addr, scanOptions(in.W)...)
	if err != nil {
		d.Stop()
		return nil, 0, 0, err
	}
	res, err := c.Scan(in.Probe)
	elapsed := time.Since(t0)
	c.Close()
	if err == nil && !sameVerdict(res, in.ProbeExpect, in.W.Content) {
		err = fmt.Errorf("set-up probe answered %+v, want %+v", res, in.ProbeExpect)
	}
	if err != nil {
		d.Stop()
		return nil, 0, 0, fmt.Errorf("set-up probe: %w", err)
	}
	rss, err := d.PeakRSS()
	if err != nil {
		d.Stop()
		return nil, 0, 0, err
	}
	return d, elapsed, rss, nil
}

// runWorkload generates the inputs, starts the daemon and runs the
// workload's phases.
func runWorkload(cfg runConfig) (*result, error) {
	in, err := NewInputs(cfg.W, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	r := &result{cfg: cfg, in: in, metrics: map[string]float64{}, e2eExtra: map[string]float64{}}

	d, first, firstRSS, err := startTimed(cfg.Daemon, in)
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	setupTimes, setupRSS := []float64{first.Seconds()}, []float64{float64(firstRSS)}
	// moreSetups times n more start-ups of spare daemons. Untraced runs
	// time set-up in three batches spread over the run, so one moment's
	// host stall cannot decide setup_s.
	moreSetups := func(n int) error {
		for i := 0; i < n; i++ {
			spare, dt, rss, err := startTimed(cfg.Daemon, in)
			if err != nil {
				return err
			}
			spare.Stop()
			setupTimes = append(setupTimes, dt.Seconds())
			setupRSS = append(setupRSS, float64(rss))
		}
		return nil
	}
	if !cfg.Trace {
		if err := moreSetups(setupBatch - 1); err != nil {
			return nil, err
		}
	}

	cs, err := dial(d.Addr, scanOptions(cfg.W)...)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	seq := new(atomic.Uint64)
	drv := &driver{in: in, conns: cs, seq: seq}

	warm := &phase{}
	if cfg.W.Hot {
		warm.merge(drv.warmCache())
	}
	warm.merge(drv.closedLoop(warmupFor(cfg.Seconds)))
	r.phases = append(r.phases, fmt.Sprintf("warmup requests %d errors %d", len(warm.samples), warm.errors()))
	c0, err := d.Counters()
	if err != nil {
		return nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(cfg.Seconds)) }

	var measured []*phase
	var open *phase
	var c1 Counters
	if !cfg.Trace {
		sampler := sampleCPU(d, throughputWindow)
		closed := drv.closedLoop(share(closedShare))
		cpu, err := sampler.finish()
		if err != nil {
			return nil, err
		}
		if err := moreSetups(setupBatch); err != nil {
			return nil, err
		}
		open = drv.openLoop(cfg.W.Rate, share(openShare), in.ArrivalSeed)
		if err := moreSetups(setupBatch); err != nil {
			return nil, err
		}
		if c1, err = d.Counters(); err != nil {
			return nil, err
		}
		// The daemon's lifetime peak: start-up, warm-up and both
		// measured phases.
		peak, err := d.PeakRSS()
		if err != nil {
			return nil, err
		}
		measured = []*phase{closed, open}
		r.metrics["setup_s"] = median(setupTimes)
		r.e2eExtra["mb_per_s"] = windowMBPerS(closed)
		r.e2eExtra["p50_us"] = us(quantile(latencies(open.samples), 0.50))
		r.e2eExtra["p99_us"] = windowP99(open)
		r.metrics["cpu_ms_per_mb"] = windowCPUPerMB(closed, cpu)
		r.metrics["setup_rss_mb"] = median(setupRSS) / 1e6
		r.e2eExtra["rss_peak_mb"] = float64(peak) / 1e6
		r.phases = append(r.phases, fmt.Sprintf("closed requests %d errors %d mb_per_s %.3f (%d connections x %d in flight)",
			len(closed.samples), closed.errors(), r.e2eExtra["mb_per_s"], conns, inFlightPerConn))
	} else {
		tcs, err := dial(d.Addr, append(scanOptions(cfg.W), client.WithTracing())...)
		if err != nil {
			return nil, err
		}
		defer closeAll(tcs)
		tdrv := &driver{in: in, conns: tcs, seq: seq}
		untraced, traced := &phase{}, &phase{}
		for i := 0; i < tracedBlocks; i++ {
			if i%2 == 0 {
				untraced.merge(drv.closedLoop(share(tracedBlockShare)))
			} else {
				traced.merge(tdrv.closedLoop(share(tracedBlockShare)))
			}
		}
		open = tdrv.openLoop(cfg.W.Rate, share(tracedOpenShare), in.ArrivalSeed)
		measured = []*phase{untraced, traced, open}
		frame, err := captureFrame(d.Addr, cfg.W.Content, in.Probe)
		if err != nil {
			return nil, err
		}
		if c1, err = d.Counters(); err != nil {
			return nil, err
		}
		d.Stop() // the replay runs on an idle host
		rep, err := replayLayers(in, share(replayShare), frame)
		if err != nil {
			return nil, err
		}
		r.layers(rep, c1.Sub(c0), untraced, traced, open)
		r.phases = append(r.phases, fmt.Sprintf("closed untraced requests %d errors %d, traced requests %d errors %d",
			len(untraced.samples), untraced.errors(), len(traced.samples), traced.errors()))
	}
	r.properties(c1.Sub(c0))

	lateP50 := us(quantile(lateness(open), 0.50))
	validity := "valid"
	if lateP50 > lateLimit*us(quantile(latencies(open.samples), 0.50)) {
		validity = "INVALID: generator late next to p50"
	}
	r.phases = append(r.phases, fmt.Sprintf("open rate %.0f/s requests %d errors %d gen_late_p50_us %.1f gen_late_p99_us %.1f (%s)",
		cfg.W.Rate, len(open.samples), open.errors(), lateP50, us(quantile(lateness(open), 0.99)), validity))

	all := &phase{}
	for _, p := range measured {
		all.merge(p)
		r.attempted += len(p.samples)
		r.errs += p.errors()
	}
	all.mismatches = append(all.mismatches, warm.mismatches...)
	r.checked = len(all.samples) + len(warm.samples) - all.errors() - warm.errors()
	// A content verdict may fall back to a shallower view only if the
	// daemon shed decode depth at some point in its life.
	depthShed := c1["content_depth_shed_total"] > 0
	if r.check, err = classify(in, all.mismatches, depthShed); err != nil {
		return nil, err
	}
	r.e2eExtra["error_ratio"] = ratio(r.errs, r.attempted)
	r.e2eExtra["wrong_verdicts"] = float64(r.wrong())
	return r, nil
}

// lateLimit is the largest generator lateness at p50, as a share of the
// open-loop p50 latency, for which the open-loop phase counts as valid.
const lateLimit = 0.2

// warmCache answers every distinct payload once, in payload order,
// filling the daemon's verdict cache.
func (d *driver) warmCache() *phase {
	p := &phase{samples: make([]sample, len(d.in.Payloads))}
	start := time.Now()
	for i := range d.in.Payloads {
		if m, bad := d.do(d.conns[i%len(d.conns)], i, start, &p.samples[i]); bad {
			p.mismatches = append(p.mismatches, m)
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// captureFrame sends the probe over a raw connection and returns the
// verdict frame the daemon answers with.
func captureFrame(addr string, contentScan bool, probe []byte) (wireFrame, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return wireFrame{}, err
	}
	defer conn.Close()
	req := server.AppendScanRequest(nil, 1, probe)
	if contentScan {
		req = server.AppendScanContentRequest(nil, 1, probe)
	}
	if _, err := conn.Write(req); err != nil {
		return wireFrame{}, err
	}
	typ, _, body, err := server.ReadFrame(bufio.NewReader(conn), 1<<20)
	if err != nil {
		return wireFrame{}, err
	}
	if typ != server.MsgVerdict && typ != server.MsgVerdictContent {
		return wireFrame{}, fmt.Errorf("captured frame has type 0x%02x, want a verdict", typ)
	}
	return wireFrame{typ: typ, body: body}, nil
}

// layers fills the traced run's per-layer metrics from the replay, the
// daemon's counter deltas and the traced phases.
func (r *result) layers(rep replayResult, dc Counters, untraced, traced, open *phase) {
	m := r.metrics
	for k, v := range rep.metrics {
		m[k] = v
	}
	m["content.depth_shed_ratio"] = dc.Ratio("content_depth_shed_total", "content_scans_total")
	m["server.cache_hit_ratio"] = dc.Ratio("cache_hits_total", "scans_total")
	m["server.queue_wait_p50_us"] = us(quantile(stage(open, tracing.StageQueueWait), 0.50))
	m["server.queue_wait_p99_us"] = us(quantile(stage(open, tracing.StageQueueWait), 0.99))
	var shedN, n int
	for _, p := range []*phase{untraced, traced, open} {
		shedN += p.count(shed)
		n += len(p.samples)
	}
	m["server.shed_ratio"] = ratio(shedN, n)
	var rtt, service []time.Duration
	for _, s := range traced.samples {
		if s.trace == nil {
			continue
		}
		rtt = append(rtt, s.trace.Network)
		service = append(service, s.trace.Elapsed-max(s.trace.Stages[tracing.StageQueueWait], 0))
	}
	m["net.rtt_us"] = us(quantile(rtt, 0.50))
	m["gen_late_p50_us"] = us(quantile(lateness(open), 0.50))
	m["gen_late_p99_us"] = us(quantile(lateness(open), 0.99))
	svc := us(quantile(service, 0.50))
	m["service_p50_us"] = svc
	// A request is the network round trip, the pool's handoff plus the
	// cache key and lookup (a cache hit's whole cost), and the scan on a
	// miss; what the layers leave unexplained is the residual.
	r.hitRatio, r.scanUs = m["server.cache_hit_ratio"], rep.scanUs
	m["residual_us"] = svc - (m["net.rtt_us"] + m["server.cache_hit_us"] + (1-r.hitRatio)*r.scanUs)
	m["residual_share"] = 0
	if svc > 0 {
		m["residual_share"] = m["residual_us"] / svc
	}
	m["tracing_overhead_ratio"] = mbPerS(traced)/mbPerS(untraced) - 1
}

// properties records the measured workload properties of an untraced
// run from the daemon's counter deltas.
func (r *result) properties(dc Counters) {
	in := r.in
	var worms, wrapped, wrappedWorms, rawClean int
	for i, p := range in.Payloads {
		if p.Worm {
			worms++
		}
		if p.Wrap != "" {
			wrapped++
			if p.Worm {
				wrappedWorms++
				if in.Expect[i].ViewIndex > 0 {
					rawClean++
				}
			}
		}
	}
	n := len(in.Payloads)
	add := func(name, value, note string) { r.props = append(r.props, property{name, value, note}) }
	add("distinct_payloads", fmt.Sprint(n), fmt.Sprintf("daemon verdict cache holds %d", server.DefaultCacheSize))
	add("cache_hit_ratio", fmt.Sprintf("%.4f", dc.Ratio("cache_hits_total", "scans_total")), "daemon counters, measured phases")
	add("worm_share", fmt.Sprintf("%.4f", ratio(worms, n)), fmt.Sprintf("planted about 1 in %d", wormEvery))
	if in.W.Content {
		add("wrapped_share", fmt.Sprintf("%.4f", ratio(wrapped, n)), "of distinct bodies")
		add("wrapped_worm_share", fmt.Sprintf("%.4f", ratio(wrappedWorms, worms)), "of worms")
		add("wrapped_worms_raw_clean", fmt.Sprintf("%d/%d", rawClean, wrappedWorms), "caught only in a decoded view")
		add("triage_clear_ratio", fmt.Sprintf("%.4f", dc.Ratio("content_triage_cleared_total", "content_scans_total")), "daemon counters, measured phases")
		add("depth_shed_ratio", fmt.Sprintf("%.4f", dc.Ratio("content_depth_shed_total", "content_scans_total")), "daemon counters, measured phases")
	}
}

// Windowed statistics. On a shared host, stalls of several
// milliseconds land in a few windows, and neighbours slow whole seconds
// of a run at a time, by up to half. The closed loop's throughput and
// cost are therefore read from its best windows, the 90th percentile of
// window throughput and the 10th of window cost: what the code does
// while the host leaves it alone, which moves from run to run far less
// than the median window does. The open loop's tail is the median over
// windows.
const (
	throughputWindow = 500 * time.Millisecond
	bestWindow       = 0.9
	tailWindowSize   = 1000
)

// windows splits a phase's samples into the whole windows of length w
// that fit in its planned duration, by the time key returns.
func windows(p *phase, w time.Duration, key func(sample) time.Duration) [][]sample {
	n := max(int(p.dur/w), 1)
	out := make([][]sample, n)
	for _, s := range p.samples {
		if i := int(key(s) / w); i >= 0 && i < n {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// windowMBPerS is the bestWindow quantile over throughput windows of
// the answered payload volume completed in each, in MB/s.
func windowMBPerS(p *phase) float64 {
	w := min(throughputWindow, p.dur)
	var rates []float64
	for _, win := range windows(p, w, func(s sample) time.Duration { return s.done }) {
		var b int
		for _, s := range win {
			if s.out == answered {
				b += int(s.size)
			}
		}
		rates = append(rates, float64(b)/1e6/w.Seconds())
	}
	return quantileF(rates, bestWindow)
}

// cpuSample is the daemon's CPU time read at one moment.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// cpuSampler reads the daemon's CPU time at a fixed period until it is
// finished.
type cpuSampler struct {
	stop, done chan struct{}
	samples    []cpuSample
	err        error
}

// sampleCPU starts reading d's CPU time every period.
func sampleCPU(d *Daemon, period time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			c, err := d.CPU()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, cpuSample{at: time.Now(), cpu: c})
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *cpuSampler) finish() ([]cpuSample, error) {
	close(s.stop)
	<-s.done
	if s.err == nil && len(s.samples) < 2 {
		s.err = fmt.Errorf("%d daemon CPU samples, want at least 2", len(s.samples))
	}
	return s.samples, s.err
}

// windowCPUPerMB is the 1-bestWindow quantile, over the windows between
// successive CPU samples, of the daemon CPU time per answered payload MB
// completed in each, in ms/MB.
func windowCPUPerMB(p *phase, cs []cpuSample) float64 {
	bytes := make([]int, len(cs))
	for _, s := range p.samples {
		if s.out != answered {
			continue
		}
		// Window k runs from sample k-1 to sample k.
		k := sort.Search(len(cs), func(i int) bool { return cs[i].at.Sub(p.start) > s.done })
		if k > 0 && k < len(cs) {
			bytes[k] += int(s.size)
		}
	}
	var costs []float64
	for k := 1; k < len(cs); k++ {
		if bytes[k] > 0 {
			ms := float64(cs[k].cpu-cs[k-1].cpu) / float64(time.Millisecond)
			costs = append(costs, ms/(float64(bytes[k])/1e6))
		}
	}
	return quantileF(costs, 1-bestWindow)
}

// windowP99 is the median over tail windows of the p99 latency of the
// requests due in each, in µs. Each window holds about tailWindowSize
// requests, so its p99 has about ten beyond it; a phase too short for
// two windows gives its plain p99.
func windowP99(p *phase) float64 {
	n := max(len(p.samples)/tailWindowSize, 1)
	var tails []float64
	for _, win := range windows(p, p.dur/time.Duration(n), func(s sample) time.Duration { return s.due }) {
		tails = append(tails, us(quantile(latencies(win), 0.99)))
	}
	return median(tails)
}

// latencies are request latencies from due time; a request without a
// verdict counts as the request timeout.
func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
		if s.out != answered {
			out[i] = requestTimeout
		}
	}
	return out
}

// lateness is how late each request was sent after its due time.
func lateness(p *phase) []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.sent - s.due
	}
	return out
}

// stage collects one echoed stage duration from a phase's traced
// answers.
func stage(p *phase, st tracing.Stage) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if s.trace != nil && s.trace.Stages[st] >= 0 {
			out = append(out, s.trace.Stages[st])
		}
	}
	return out
}

// mbPerS is a phase's answered payload volume per second, in MB/s.
func mbPerS(p *phase) float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.bytes) / 1e6 / p.elapsed.Seconds()
}

// quantile is the nearest-rank q-quantile; zero for no samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// quantileF is the nearest-rank q-quantile of xs; zero for none.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
