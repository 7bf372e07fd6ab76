package main

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// Load shape.
const (
	// conns is the number of client connections (one per vCPU of the
	// reference host).
	conns = 2
	// inFlightPerConn is each closed-loop connection's request window:
	// enough to keep both daemon workers busy, and few enough that the
	// queue never reaches the occupancy at which melserved sheds decode
	// depth.
	inFlightPerConn = 2
	// requestTimeout bounds every request; one that runs out counts as
	// unanswered.
	requestTimeout = 10 * time.Second
	// maxOpenInFlight bounds the open loop's outstanding requests; the
	// generator waits (and reports the lateness) beyond it.
	maxOpenInFlight = 512
	// pacerSpin is how long before each due time the open-loop pacer
	// stops sleeping and spins: at the workloads' rates it costs a few
	// percent of one vCPU.
	pacerSpin = 100 * time.Microsecond
)

// outcome classifies one request.
type outcome uint8

const (
	answered outcome = iota
	shed             // server.ErrOverloaded
	expired          // server.ErrDeadlineExceeded
	failed           // any other typed error, transport error or timeout
)

// sample is one request's record. Offsets are from the phase start.
type sample struct {
	idx  int32
	size int32 // payload bytes
	out  outcome
	due  time.Duration // when the request was due (closed loop: sent)
	sent time.Duration // when it was handed to the client
	done time.Duration // when the answer (or error) arrived
	// trace is the echoed server timing of a traced request.
	trace *client.Trace
}

// latency is the request's latency counted from its due time.
func (s sample) latency() time.Duration { return s.done - s.due }

// mismatch is one answer that differed from its expected verdict; it
// is classified after the phase, off the clock.
type mismatch struct {
	idx int32
	got client.Result
}

// phase is the record of one load phase.
type phase struct {
	samples    []sample
	mismatches []mismatch
	// start is when the phase began; sample offsets count from it.
	start time.Time
	// dur is the phase's planned length; elapsed spans the phase start
	// to the last completion.
	dur, elapsed time.Duration
	// bytes is the payload volume of answered requests.
	bytes int64
}

// count returns how many samples had outcome o.
func (p *phase) count(o outcome) int {
	n := 0
	for _, s := range p.samples {
		if s.out == o {
			n++
		}
	}
	return n
}

// errors returns the number of requests that got no verdict.
func (p *phase) errors() int { return len(p.samples) - p.count(answered) }

// merge folds q into p (samples keep their own phase-relative offsets).
func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.mismatches = append(p.mismatches, q.mismatches...)
	p.dur += q.dur
	p.elapsed += q.elapsed
	p.bytes += q.bytes
}

// driver sends one workload's requests over a set of connections. The
// request sequence is shared by every phase, so a replay that must miss
// the daemon's cache keeps moving forward through the distinct set.
type driver struct {
	in    *Inputs
	conns []*client.Client
	seq   *atomic.Uint64
}

// next returns the payload index of the next request in the sequence.
func (d *driver) next() int { return d.in.index(d.seq.Add(1) - 1) }

// do sends payload idx and records it in s; a wrong verdict is returned
// as a mismatch.
func (d *driver) do(c *client.Client, idx int, start time.Time, s *sample) (mismatch, bool) {
	s.idx, s.size = int32(idx), int32(len(d.in.Payloads[idx].Data))
	s.sent = time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	res, err := c.ScanContext(ctx, d.in.Payloads[idx].Data)
	cancel()
	s.done = time.Since(start)
	switch {
	case err == nil:
		s.out = answered
		s.trace = res.Trace
		// A planted worm answered benign is wrong even when the
		// expectation agrees.
		if !sameVerdict(res, d.in.Expect[idx], d.in.W.Content) || (d.in.Payloads[idx].Worm && !res.Malicious) {
			return mismatch{idx: int32(idx), got: res}, true
		}
	case errors.Is(err, server.ErrOverloaded):
		s.out = shed
	case errors.Is(err, server.ErrDeadlineExceeded):
		s.out = expired
	default:
		s.out = failed
	}
	return mismatch{}, false
}

// closedLoop keeps inFlightPerConn requests outstanding on every
// connection for dur.
func (d *driver) closedLoop(dur time.Duration) *phase {
	workers := len(d.conns) * inFlightPerConn
	parts := make([]phase, workers)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			c := d.conns[w%len(d.conns)]
			for time.Now().Before(end) {
				var s sample
				m, bad := d.do(c, d.next(), start, &s)
				s.due = s.sent
				if bad {
					p.mismatches = append(p.mismatches, m)
				}
				if s.out == answered {
					p.bytes += int64(s.size)
				}
				p.samples = append(p.samples, s)
			}
		}(w)
	}
	wg.Wait()
	out := &phase{start: start, dur: dur, elapsed: time.Since(start)}
	for i := range parts {
		out.samples = append(out.samples, parts[i].samples...)
		out.mismatches = append(out.mismatches, parts[i].mismatches...)
		out.bytes += parts[i].bytes
	}
	return out
}

// openLoop sends requests at seeded Poisson arrival times for dur,
// regardless of how fast answers come back. Each request's latency is
// counted from its due time, so a stall shows in every request due
// while it lasts.
func (d *driver) openLoop(rate float64, dur time.Duration, seed uint64) *phase {
	dues := arrivals(seed, rate, dur)
	p := &phase{dur: dur, samples: make([]sample, len(dues))}
	bad := make([]bool, len(dues))
	mism := make([]mismatch, len(dues))
	sem := make(chan struct{}, maxOpenInFlight)
	var wg sync.WaitGroup

	start := time.Now()
	p.start = start
	for k, due := range dues {
		sleepUntil(start.Add(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			s := &p.samples[k]
			s.due = due
			mism[k], bad[k] = d.do(d.conns[k%len(d.conns)], d.next(), start, s)
		}(k, due)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for k, s := range p.samples {
		if bad[k] {
			p.mismatches = append(p.mismatches, mism[k])
		}
		if s.out == answered {
			p.bytes += int64(s.size)
		}
	}
	return p
}

// sleepUntil returns at t, within microseconds. It first yields, so a
// sender goroutine just started on this P runs (and writes its request)
// before the pacer blocks. It then sleeps in nanosleep(2) with a
// microsecond timer slack on the current thread, rather than on the
// runtime timer, whose wake-ups come on a millisecond grain when the
// process is otherwise idle; it wakes pacerSpin early and spins the
// rest, because waking an idle vCPU costs tens of microseconds.
func sleepUntil(t time.Time) {
	const prSetTimerSlack = 29
	runtime.Gosched()
	for wait := time.Until(t) - pacerSpin; wait > 0; wait = time.Until(t) - pacerSpin {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, uintptr(time.Microsecond), 0)
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
	for time.Now().Before(t) {
	}
}

// dial opens the benchmark's connections to addr.
func dial(addr string, opts ...client.Option) ([]*client.Client, error) {
	cs := make([]*client.Client, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := client.Dial(addr, opts...)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// closeAll closes every connection.
func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}
