package server

import (
	"bufio"
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry/events"
)

// TestHitPathAllocFree: answering a verdict-cache hit on the connection
// goroutine — hash, lookup, the served-verdict bookkeeping (counters,
// latency, journal event) and the frame append into the connection's
// write buffer — allocates nothing when no trace recorder is set.
func TestHitPathAllocFree(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	journal := events.New(events.Config{Capacity: 64, SampleEvery: 1})
	p, err := NewPool(PoolConfig{Detector: det, Workers: 1, Events: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cases, err := corpus.Dataset(51, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := cases[0].Data
	if _, _, err := p.Do(context.Background(), payload); err != nil {
		t.Fatal(err)
	}
	w := &connWriter{bw: bufio.NewWriterSize(io.Discard, 64<<10)}

	hits := p.m.hits.Value()
	const runs = 200 // 200 frames fit the write buffer: no flush, no conn
	allocs := testing.AllocsPerRun(runs, func() {
		j := job{payload: payload, enqueued: time.Now()}
		v, ok := p.lookup(&j)
		if !ok {
			t.Fatal("warm payload missed the cache")
		}
		if err := w.writeHit(7, v, false, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f times per request, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the runs.
	if got := p.m.hits.Value() - hits; got != runs+1 {
		t.Fatalf("cache_hits_total rose by %d, want %d", got, runs+1)
	}
}
