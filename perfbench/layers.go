package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/mel"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/modelwatch"
	"repro/internal/telemetry/tracing"
)

// Replay shape.
const (
	// replayReps repeats each timed call; the minimum is kept, which
	// drops preemptions and GC pauses from a single-call timing.
	replayReps = 3
	// minReplay is the fewest payloads each replay group covers,
	// whatever the budget.
	minReplay = 8
	// journalRecords is the number of events.Journal.Record calls timed
	// per batch.
	journalRecords = 100_000
)

// wireFrame is one verdict frame captured from the live daemon, used to
// time the client-side decode.
type wireFrame struct {
	typ  byte
	body []byte
}

// replayResult holds the per-layer metrics of the in-process replay and
// the per-request scan cost used by the residual.
type replayResult struct {
	metrics map[string]float64
	// scanUs is the mean per-request cost of the daemon's scan call on
	// a cache miss: Detector.Scan, or Pipeline.Scan for content scans.
	scanUs float64
}

// timeMin runs f reps times and returns the fastest run.
func timeMin(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayLayers times each layer's public functions over the workload's
// distinct payloads, in three groups sharing budget.
func replayLayers(in *Inputs, budget time.Duration, frame wireFrame) (replayResult, error) {
	out := replayResult{metrics: map[string]float64{}}
	det, err := newDetector()
	if err != nil {
		return out, err
	}
	pipe, err := newPipeline(det)
	if err != nil {
		return out, err
	}
	groups := []struct {
		share float64
		run   func(deadline time.Time) error
	}{
		{0.4, func(dl time.Time) error { return replayMEL(in, det, dl, &out) }},
		{0.3, func(dl time.Time) error { return replayContent(in, det, pipe, dl, &out) }},
		{0.3, func(dl time.Time) error { return replayServer(in, dl, frame, &out) }},
	}
	for _, g := range groups {
		runtime.GC()
		if err := g.run(time.Now().Add(time.Duration(g.share * float64(budget)))); err != nil {
			return out, err
		}
	}
	return out, nil
}

// more reports whether a replay loop should take payload i.
func more(in *Inputs, i int, deadline time.Time) bool {
	return i < len(in.Payloads) && (i < minReplay || time.Now().Before(deadline))
}

// replayMEL times the record build, the engine scan and the detector
// scan; the DP and the threshold are the differences.
func replayMEL(in *Inputs, det *core.Detector, deadline time.Time, out *replayResult) error {
	eng := mel.NewEngineMode(mel.DAWN(), mel.ModeSequential)
	var recs []uint64
	var kb float64
	var tRec, tEng, tDet time.Duration
	var scanErr error
	n := 0
	for ; more(in, n, deadline); n++ {
		p := in.Payloads[n].Data
		kb += float64(len(p)) / 1024
		tRec += timeMin(replayReps, func() { recs = eng.FusedRecords(p, recs) })
		tEng += timeMin(replayReps, func() {
			if _, err := eng.Scan(p); err != nil {
				scanErr = err
			}
		})
		tDet += timeMin(replayReps, func() {
			if _, err := det.Scan(p); err != nil {
				scanErr = err
			}
		})
	}
	if scanErr != nil {
		return fmt.Errorf("replay scan: %w", scanErr)
	}
	out.metrics["mel.records_us_per_kb"] = us(tRec) / kb
	out.metrics["mel.dp_us_per_kb"] = us(tEng-tRec) / kb
	out.metrics["core.threshold_us"] = us(tDet-tEng) / float64(n)
	if !in.W.Content {
		out.scanUs = us(tDet) / float64(n)
	}
	return nil
}

// contentPlan is what Pipeline.Scan does with one payload at full
// depth, worked out untimed so each stage can be timed alone.
type contentPlan struct {
	triaged [][]byte // raw payload and every view the pipeline triages
	scanned [][]byte // buffers the pipeline runs the MEL pass on
	decodes bool     // whether the decoder runs at all
	views   int      // views the decoder produced for the pipeline
	// viewScans counts the views (not the raw payload) MEL-scanned.
	viewScans int
	// stopAt is the 1-based view whose malicious verdict ends the
	// decode walk early; zero when the walk runs to the end.
	stopAt  int
	cleared int // triaged buffers that triage cleared
}

// planContent mirrors content.Pipeline.ScanTraced at full depth.
func planContent(det *core.Detector, pipe *content.Pipeline, p []byte) (contentPlan, error) {
	var pl contentPlan
	tri := pipe.Triage()
	// step triages b and, unless cleared, scans it; scanned reports
	// whether the MEL pass ran and succeeded.
	step := func(b []byte) (scanned, malicious bool, err error) {
		pl.triaged = append(pl.triaged, b)
		if tri.Assess(b).Cleared {
			pl.cleared++
			return false, false, nil
		}
		v, err := det.Scan(b)
		if err != nil {
			return false, false, err
		}
		pl.scanned = append(pl.scanned, b)
		return true, v.Malicious, nil
	}
	if _, mal, err := step(p); err != nil || mal {
		return pl, err
	}
	pl.decodes = true
	for view, derr := range pipe.Decoder().Views(p, 0) {
		if derr != nil {
			break
		}
		pl.views++
		// A view that fails to scan is skipped, as the pipeline does.
		scanned, mal, _ := step(view.Data)
		if scanned {
			pl.viewScans++
		}
		if mal {
			pl.stopAt = pl.views
			break
		}
	}
	return pl, nil
}

// replayContent times triage, decode and the MEL passes of the content
// pipeline, and the whole Pipeline.Scan; the pipeline residual is the
// difference.
func replayContent(in *Inputs, det *core.Detector, pipe *content.Pipeline, deadline time.Time, out *replayResult) error {
	tri, dec := pipe.Triage(), pipe.Decoder()
	var tTri, tDec, tMel, tPipe time.Duration
	decode := map[string]time.Duration{}
	decodeN := map[string]int{}
	var assessed, cleared, produced, melViews int
	var scanErr error
	n := 0
	for ; more(in, n, deadline); n++ {
		p := in.Payloads[n]
		pl, err := planContent(det, pipe, p.Data)
		if err != nil {
			return fmt.Errorf("replay content plan: %w", err)
		}
		assessed += len(pl.triaged)
		cleared += pl.cleared
		produced += pl.views
		melViews += pl.viewScans
		tTri += timeMin(replayReps, func() {
			for _, b := range pl.triaged {
				tri.Assess(b)
			}
		})
		var d time.Duration
		if pl.decodes {
			d = timeMin(replayReps, func() {
				k := 0
				for _, derr := range dec.Views(p.Data, 0) {
					if k++; derr != nil || k == pl.stopAt {
						break
					}
				}
			})
		}
		tDec += d
		if p.Wrap != "" {
			outer := wrapOuter(p.Wrap)
			decode[outer] += d
			decodeN[outer]++
		}
		tMel += timeMin(replayReps, func() {
			for _, b := range pl.scanned {
				if _, err := det.Scan(b); err != nil {
					scanErr = err
				}
			}
		})
		tPipe += timeMin(replayReps, func() {
			if _, err := pipe.Scan(p.Data); err != nil {
				scanErr = err
			}
		})
	}
	if scanErr != nil {
		return fmt.Errorf("replay content scan: %w", scanErr)
	}
	allocs, allocKB := decodeAllocs(in, dec, n)
	m := out.metrics
	m["content.triage_us"] = us(tTri) / float64(n)
	m["content.triage_clear_ratio"] = ratio(cleared, assessed)
	for _, c := range wrapChains {
		outer := wrapOuter(c)
		m["content.decode_us."+outer] = 0
		if decodeN[outer] > 0 {
			m["content.decode_us."+outer] = us(decode[outer]) / float64(decodeN[outer])
		}
	}
	m["content.decode_allocs"] = allocs
	m["content.decode_alloc_kb"] = allocKB
	m["content.mel_view_ratio"] = ratio(melViews, produced)
	m["content.pipeline_residual_us"] = us(tPipe-tTri-tDec-tMel) / float64(n)
	if in.W.Content {
		out.scanUs = us(tPipe) / float64(n)
	}
	return nil
}

// wrapOuter names a wrap chain's outermost layer.
func wrapOuter(chain string) string {
	c, err := content.ParseChain(chain)
	if err != nil || c.Len() == 0 {
		return ""
	}
	return c.At(0).String()
}

// decodeAllocs is the mean heap allocation count and volume of one full
// Decoder.Views walk over the first n payloads.
func decodeAllocs(in *Inputs, dec *content.Decoder, n int) (allocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, p := range in.Payloads[:n] {
		for range dec.Views(p.Data, 0) {
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// ratio is a/b, zero when b is.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// daemonPool builds a scan pool configured like melserved's: tracing
// recorder, instrumented detector, model watcher, event journal, and
// the content pipeline for content workloads. cacheSize follows
// server.PoolConfig.
func daemonPool(contentScans bool, cacheSize int) (*server.Pool, func([]byte) error, error) {
	det, err := newDetector()
	if err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	server.InstrumentDetector(det, reg)
	watcher := modelwatch.New(reg, modelwatch.Config{})
	cfg := server.PoolConfig{
		Detector:  det,
		CacheSize: cacheSize,
		Metrics:   reg,
		Recorder:  tracing.NewRecorder(tracing.RecorderConfig{}),
		OnVerdict: func(v core.Verdict) { watcher.Observe(v.MEL, v.Params.N, v.Params.P) },
		Events:    newJournal(reg),
	}
	scan := func(p []byte) error { _, err := det.Scan(p); return err }
	if contentScans {
		pipe, err := content.NewPipeline(det.ScanTraced, content.PipelineConfig{Registry: reg})
		if err != nil {
			return nil, nil, err
		}
		cfg.Content = pipe
		scan = func(p []byte) error { _, err := pipe.Scan(p); return err }
	}
	pool, err := server.NewPool(cfg)
	return pool, scan, err
}

// newJournal builds the event journal at melserved's default flags.
func newJournal(reg *telemetry.Registry) *events.Journal {
	return events.New(events.Config{
		Capacity:      events.DefaultCapacity,
		SampleEvery:   events.DefaultSampleEvery,
		SlowThreshold: events.DefaultSlowThreshold,
		Registry:      reg,
	})
}

// poolDo runs one request through the pool on the workload's path.
func poolDo(pool *server.Pool, contentScans bool, p []byte) error {
	var err error
	if contentScans {
		_, _, err = pool.DoContent(context.Background(), p)
	} else {
		_, _, err = pool.Do(context.Background(), p)
	}
	return err
}

// replayServer times the wire codec, the pool handoff, a cache hit and
// one journal record.
func replayServer(in *Inputs, deadline time.Time, frame wireFrame, out *replayResult) error {
	cs := in.W.Content
	cold, scan, err := daemonPool(cs, -1)
	if err != nil {
		return err
	}
	defer cold.Close()
	warm, _, err := daemonPool(cs, 0)
	if err != nil {
		return err
	}
	defer warm.Close()

	var tWire, tDo, tScan, tHit time.Duration
	var runErr error
	keep := func(err error) {
		if err != nil {
			runErr = err
		}
	}
	var buf []byte
	var rd bytes.Reader
	n := 0
	for ; more(in, n, deadline); n++ {
		p := in.Payloads[n].Data
		tWire += timeMin(replayReps, func() {
			if cs {
				buf = server.AppendScanContentRequest(buf[:0], 1, p)
			} else {
				buf = server.AppendScanRequest(buf[:0], 1, p)
			}
			rd.Reset(buf)
			_, _, _, err := server.ReadFrame(&rd, uint32(len(buf)))
			keep(err)
			keep(decodeFrame(frame))
		})
		tDo += timeMin(replayReps, func() { keep(poolDo(cold, cs, p)) })
		tScan += timeMin(replayReps, func() { keep(scan(p)) })
		keep(poolDo(warm, cs, p))
		tHit += timeMin(replayReps, func() { keep(poolDo(warm, cs, p)) })
	}
	if runErr != nil {
		return fmt.Errorf("replay server: %w", runErr)
	}
	m := out.metrics
	m["server.wire_us"] = us(tWire) / float64(n)
	m["server.pool_handoff_us"] = us(tDo-tScan) / float64(n)
	m["server.cache_hit_us"] = us(tHit) / float64(n)
	m["events.record_ns"] = journalRecordNs(in.W.Size)
	return nil
}

// decodeFrame decodes a captured verdict frame the way the client does.
func decodeFrame(f wireFrame) error {
	var err error
	switch f.typ {
	case server.MsgVerdictContent:
		_, _, err = server.DecodeVerdictContent(f.body)
	default:
		_, _, err = server.DecodeVerdict(f.body)
	}
	return err
}

// journalRecordNs is the fastest mean cost of events.Journal.Record over
// three batches of a benign served-verdict event, at melserved's
// default journal configuration (which samples such events).
func journalRecordNs(size int) float64 {
	j := newJournal(telemetry.NewRegistry())
	ev := events.Event{
		StartUnixNs: time.Now().UnixNano(),
		Total:       60 * time.Microsecond,
		Bytes:       size,
		MEL:         12,
		Threshold:   40,
		ViewIndex:   -1,
		Cause:       events.CauseOK,
	}
	for i := range ev.Stages {
		ev.Stages[i] = time.Duration(i+1) * time.Microsecond
	}
	d := timeMin(3, func() {
		for i := 0; i < journalRecords; i++ {
			j.Record(&ev)
		}
	})
	return float64(d) / journalRecords
}
