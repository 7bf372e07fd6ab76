package main

import (
	"repro/internal/core"
	"repro/internal/server/client"
)

// shedPressures are pipeline load signals that select each shallower
// decode depth melserved can shed to (2, 1 and 0 views deep).
var shedPressures = []float64{0.6, 0.8, 0.95}

// sameVerdict reports whether a wire answer carries exactly the
// expected verdict: every field the wire transmits, the content fields
// included for content scans.
func sameVerdict(r client.Result, v core.Verdict, contentScan bool) bool {
	if r.Malicious != v.Malicious || r.MEL != v.MEL || r.BestStart != v.BestStart ||
		r.Threshold != v.Threshold || r.TextOnly != v.TextOnly {
		return false
	}
	return !contentScan || (r.TriageCleared == v.TriageCleared && r.TriageScore == v.TriageScore &&
		r.ViewIndex == v.ViewIndex && r.DecodeChain == v.DecodeChain)
}

// verdictCheck is the outcome of classifying a run's mismatches.
type verdictCheck struct {
	// wrong counts wrong verdicts: any plain-scan mismatch, any planted
	// worm answered benign, and any other content mismatch that is not
	// a shed fallback.
	wrong int
	// missedWorms counts the wrong verdicts that are planted worms the
	// in-process detector or pipeline answers benign too: a detection
	// miss of the program rather than a serving fault.
	missedWorms int
	// fallbacks counts content verdicts that fell back to a shallower
	// decode depth while the daemon was shedding depth.
	fallbacks int
}

// classify sorts mismatching answers into wrong verdicts and allowed
// shed fallbacks. depthShed reports whether the daemon shed decode
// depth during the run; only then may a content verdict differ, and
// only by matching the pipeline's verdict at a shallower depth.
func classify(in *Inputs, ms []mismatch, depthShed bool) (verdictCheck, error) {
	var vc verdictCheck
	shallow := map[int32][]core.Verdict{}
	for _, m := range ms {
		p := in.Payloads[m.idx]
		if p.Worm && !m.got.Malicious && !in.Expect[m.idx].Malicious {
			vc.missedWorms++
		}
		if !in.W.Content || !depthShed || (p.Worm && !m.got.Malicious) {
			vc.wrong++
			continue
		}
		alts, ok := shallow[m.idx]
		if !ok {
			var err error
			if alts, err = shallowVerdicts(p.Data); err != nil {
				return vc, err
			}
			shallow[m.idx] = alts
		}
		fallback := false
		for _, v := range alts {
			fallback = fallback || sameVerdict(m.got, v, true)
		}
		if fallback {
			vc.fallbacks++
		} else {
			vc.wrong++
		}
	}
	return vc, nil
}

// shallowVerdicts are the pipeline's verdicts for p at each decode
// depth the daemon may shed to.
func shallowVerdicts(p []byte) ([]core.Verdict, error) {
	det, err := newDetector()
	if err != nil {
		return nil, err
	}
	out := make([]core.Verdict, 0, len(shedPressures))
	for _, pressure := range shedPressures {
		pipe, err := newPipeline(det)
		if err != nil {
			return nil, err
		}
		pipe.SetPressure(pressure)
		v, err := pipe.Scan(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
