package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/encoder"
	"repro/internal/mel"
	"repro/internal/shellcode"
	"repro/internal/stats"
)

// Workload is one traffic mix driven through melserved.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	Why string
	// Size is the body length before any content wrapping.
	Size int
	// Distinct is the number of distinct bodies. Above the daemon's
	// verdict-cache capacity, in-order replay misses on every request.
	Distinct int
	// Hot draws requests at random from the distinct set and warms the
	// daemon's cache with it first, so nearly every request hits.
	Hot bool
	// Content sends content scans to a daemon started with -content,
	// and wraps a share of the bodies in encoding layers.
	Content bool
	// Rate is the open-loop Poisson arrival rate in requests per second.
	Rate float64
	// Held, when set, says why the workload is left out of
	// BENCHMARK.json and of --workload all; it still runs by name.
	Held string
}

// workloads is the benchmark's fixed workload list, in run order.
var workloads = []Workload{
	{
		Name:     "serve_text_4k",
		Why:      "distinct 4 KB text windows, 1 in 64 with a text worm, replayed past the 4096-entry cache: MEL does the work (open loop 200/s)",
		Size:     4 << 10,
		Distinct: 8192,
		Rate:     200,
	},
	{
		Name:     "serve_text_64k",
		Why:      "the same traffic in 64 KB windows: MEL records and memo spill out of L2 and per-request costs vanish (open loop 40/s)",
		Size:     64 << 10,
		Distinct: 4352,
		Rate:     40,
	},
	{
		Name:     "serve_hot_4k",
		Why:      "4 KB payloads drawn from a warmed hot set of 256, so nearly every request is a cache hit: the serving path alone (open loop 150/s)",
		Size:     4 << 10,
		Distinct: 256,
		Hot:      true,
		Rate:     150,
	},
	{
		Name:     "serve_content_4k",
		Why:      "distinct 4 KB content scans, 30% wrapped in one of six encodings, 1 in 64 with a worm: triage and decode do the work (open loop 500/s)",
		Size:     4 << 10,
		Distinct: 8192,
		Content:  true,
		Rate:     500,
		Held:     "fails its verdict check: the triage gate clears some planted worm windows, so the pipeline skips the MEL pass on them and answers benign",
	},
}

// manifestWorkloads are the workloads BENCHMARK.json lists, in run
// order: every workload that is not held out.
func manifestWorkloads() []Workload {
	var out []Workload
	for _, w := range workloads {
		if w.Held == "" {
			out = append(out, w)
		}
	}
	return out
}

// workloadByName finds a workload in the fixed list.
func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Generator shape.
const (
	// windowStride is the distance between successive windows of the
	// seeded text stream; overlapping windows keep the 64 KB set small.
	windowStride = 512
	// wormEvery plants a worm in about 1 in wormEvery bodies.
	wormEvery = 64
	// wormKinds is the number of distinct encoded worms per seed.
	wormKinds = 8
	// wrapShare is the share of benign content bodies that get wrapped;
	// worms are wrapped half the time.
	wrapShare = 0.3
	// hotOrderLen is the length of the random request sequence drawn
	// from the hot set (cycled).
	hotOrderLen = 1 << 16
	// daemonAlpha is melserved's -alpha default.
	daemonAlpha = 0.01
	// referenceSample is how many bodies (and how many worm bodies) the
	// expectation's MEL is cross-checked against ScanReference on.
	referenceSample = 4
)

// wrapChains are the encodings content bodies are wrapped in, outermost
// layer first.
var wrapChains = []string{"base64", "gzip", "gzip>base64", "qp", "percent", "chunked"}

// Payload is one distinct request body as sent on the wire.
type Payload struct {
	Data []byte
	// Worm marks a body with a text worm spliced in.
	Worm bool
	// Wrap is the encoding chain around the body, outermost first;
	// empty for a plain body.
	Wrap string
}

// Inputs is everything a run sends and expects, generated from the
// workload and the seed alone.
type Inputs struct {
	W Workload
	// Payloads are the distinct bodies; Expect their verdicts, computed
	// in-process with a detector (and pipeline) built like the daemon's.
	Payloads []Payload
	Expect   []core.Verdict
	// Probe is the set-up probe body (not among Payloads, so it never
	// warms the cache for them) and ProbeExpect its verdict.
	Probe       []byte
	ProbeExpect core.Verdict
	// Order is the request sequence over Payloads, cycled.
	Order []int32
	// ArrivalSeed seeds the open-loop Poisson arrival times.
	ArrivalSeed uint64
	// RefChecked and RefMismatches count the bodies whose expected MEL
	// was cross-checked against mel.Engine.ScanReference, and the
	// disagreements (each one is a wrong verdict).
	RefChecked, RefMismatches int
}

// index returns the payload index of the k-th request.
func (in *Inputs) index(k uint64) int {
	return int(in.Order[k%uint64(len(in.Order))])
}

// NewInputs generates a workload's inputs and their expected verdicts.
func NewInputs(w Workload, seed uint64) (*Inputs, error) {
	rng := stats.NewRNG(seed)
	textSeed, wormSeed, probeSeed := rng.Uint64(), rng.Uint64(), rng.Uint64()
	in := &Inputs{W: w, ArrivalSeed: rng.Uint64()}

	stream, err := textStream(textSeed, w.Size+(w.Distinct-1)*windowStride)
	if err != nil {
		return nil, err
	}
	worms, err := makeWorms(wormSeed)
	if err != nil {
		return nil, err
	}
	in.Payloads = make([]Payload, w.Distinct)
	for i := range in.Payloads {
		body := stream[i*windowStride : i*windowStride+w.Size : i*windowStride+w.Size]
		p := Payload{Data: body}
		if rng.Intn(wormEvery) == 0 {
			worm := worms[rng.Intn(len(worms))]
			p.Data = append([]byte(nil), body...)
			copy(p.Data[rng.Intn(w.Size-len(worm)+1):], worm)
			p.Worm = true
		}
		if w.Content {
			share := wrapShare
			if p.Worm {
				share = 0.5
			}
			if rng.Bernoulli(share) {
				p.Wrap = wrapChains[rng.Intn(len(wrapChains))]
				chain, err := content.ParseChain(p.Wrap)
				if err != nil {
					return nil, err
				}
				if p.Data, err = content.EncodeChain(chain, p.Data); err != nil {
					return nil, fmt.Errorf("wrap %s: %w", p.Wrap, err)
				}
			}
		}
		in.Payloads[i] = p
	}

	if w.Hot {
		in.Order = make([]int32, hotOrderLen)
		for i := range in.Order {
			in.Order[i] = int32(rng.Intn(w.Distinct))
		}
	} else {
		in.Order = make([]int32, w.Distinct)
		for i := range in.Order {
			in.Order[i] = int32(i)
		}
	}

	probe, err := textStream(probeSeed, w.Size)
	if err != nil {
		return nil, err
	}
	in.Probe = probe
	if err := in.expect(); err != nil {
		return nil, err
	}
	return in, nil
}

// textStream is n bytes of the seeded benign corpus (HTML, request
// streams, mail bodies and URL lists, all printable text).
func textStream(seed uint64, n int) ([]byte, error) {
	const caseLen = 4 << 10
	cases, err := corpus.Dataset(seed, (n+caseLen-1)/caseLen, caseLen)
	if err != nil {
		return nil, err
	}
	return corpus.Concat(cases)[:n], nil
}

// makeWorms encodes wormKinds shellcode variants into pure-text worms.
func makeWorms(seed uint64) ([][]byte, error) {
	variants := shellcode.Variants(seed, wormKinds)
	worms := make([][]byte, len(variants))
	for i, v := range variants {
		w, err := encoder.Encode(v.Code, encoder.Options{
			SledLen: 64,
			Seed:    seed + uint64(i),
			Style:   encoder.Style(i % 2),
		})
		if err != nil {
			return nil, fmt.Errorf("encode worm %s: %w", v.Name, err)
		}
		worms[i] = w.Bytes
	}
	return worms, nil
}

// newDetector builds the detector the way melserved does with default
// flags.
func newDetector() (*core.Detector, error) {
	return core.New(core.WithAlpha(daemonAlpha))
}

// newPipeline builds the content pipeline the way melserved -content
// does with default flags.
func newPipeline(det *core.Detector) (*content.Pipeline, error) {
	return content.NewPipeline(det.ScanTraced, content.PipelineConfig{})
}

// scanFunc returns the in-process equivalent of the daemon's scan path
// for the workload.
func scanFunc(w Workload) (func([]byte) (core.Verdict, error), error) {
	det, err := newDetector()
	if err != nil {
		return nil, err
	}
	if !w.Content {
		return det.Scan, nil
	}
	pipe, err := newPipeline(det)
	if err != nil {
		return nil, err
	}
	return pipe.Scan, nil
}

// expect computes every expected verdict in-process, spread over
// GOMAXPROCS goroutines, then cross-checks the detector's MEL against
// the reference explorer on a fixed sample.
func (in *Inputs) expect() error {
	scan, err := scanFunc(in.W)
	if err != nil {
		return err
	}
	if in.ProbeExpect, err = scan(in.Probe); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	in.Expect = make([]core.Verdict, len(in.Payloads))
	errs := make([]error, procs())
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(in.Payloads); i += len(errs) {
				v, err := scan(in.Payloads[i].Data)
				if err != nil {
					errs[g] = fmt.Errorf("expect payload %d: %w", i, err)
					return
				}
				in.Expect[i] = v
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return in.referenceCheck()
}

// referenceCheck compares the raw-body MEL of the first few bodies and
// the first few worm bodies with mel.Engine.ScanReference.
func (in *Inputs) referenceCheck() error {
	det, err := newDetector()
	if err != nil {
		return err
	}
	ref := mel.NewEngineMode(mel.DAWN(), mel.ModeSequential)
	var plain, worms int
	for i, p := range in.Payloads {
		if p.Worm && worms < referenceSample {
			worms++
		} else if !p.Worm && plain < referenceSample {
			plain++
		} else {
			continue
		}
		got, err := det.Scan(p.Data)
		if err != nil {
			return fmt.Errorf("reference check payload %d: %w", i, err)
		}
		want, err := ref.ScanReference(p.Data)
		if err != nil {
			return fmt.Errorf("reference check payload %d: %w", i, err)
		}
		in.RefChecked++
		if got.MEL != want.MEL {
			in.RefMismatches++
		}
	}
	return nil
}

// Digest hashes every generated input and expectation, so two runs can
// be compared for byte identity.
func (in *Inputs) Digest() [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, p := range in.Payloads {
		put(uint64(len(p.Data)))
		h.Write(p.Data)
		h.Write([]byte(p.Wrap))
		v := in.Expect[i]
		put(uint64(v.MEL))
		put(uint64(v.BestStart))
		put(math.Float64bits(v.Threshold))
		put(uint64(v.ViewIndex))
		h.Write([]byte(v.DecodeChain))
		put(math.Float64bits(v.TriageScore))
		put(boolBits(p.Worm, v.Malicious, v.TextOnly, v.TriageCleared))
	}
	for _, k := range in.Order {
		put(uint64(k))
	}
	h.Write(in.Probe)
	for _, d := range arrivals(in.ArrivalSeed, 1000, time.Second) {
		put(uint64(d))
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// boolBits packs flags into one word.
func boolBits(bs ...bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// arrivals returns the open-loop due times, offsets from the phase
// start, of a seeded Poisson process at rate per second over d.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := stats.NewRNG(seed)
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.2)+16)
	var t float64
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
