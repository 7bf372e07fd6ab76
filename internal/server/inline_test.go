package server_test

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// blockOnce is an OnVerdict hook that, once armed, parks the first
// verdict delivered to it until released. It is how the tests below
// hold a worker or a connection goroutine at a known point.
type blockOnce struct {
	armed   atomic.Bool
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockOnce() *blockOnce {
	return &blockOnce{blocked: make(chan struct{}), release: make(chan struct{})}
}

// unblock releases the parked verdict, if any; safe to call twice.
func (b *blockOnce) unblock() { b.once.Do(func() { close(b.release) }) }

func (b *blockOnce) hook(core.Verdict) {
	if b.armed.CompareAndSwap(true, false) {
		close(b.blocked)
		<-b.release
	}
}

// rawConn dials addr for hand-built frames; cleanup closes it.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// readResponse reads one response frame, failing the test if none
// arrives within five seconds.
func readResponse(t *testing.T, conn net.Conn, br *bufio.Reader) (typ byte, id uint64, payload []byte) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err := server.ReadFrame(br, 1<<20)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return typ, id, payload
}

// scanRaw sends one plain scan on a raw connection and returns its
// verdict.
func scanRaw(t *testing.T, conn net.Conn, br *bufio.Reader, id uint64, payload []byte) (core.Verdict, bool) {
	t.Helper()
	if _, err := conn.Write(server.AppendScanRequest(nil, id, payload)); err != nil {
		t.Fatal(err)
	}
	typ, gotID, body := readResponse(t, conn, br)
	if typ != server.MsgVerdict || gotID != id {
		t.Fatalf("response type 0x%02x id %d, want a verdict for id %d", typ, gotID, id)
	}
	v, cached, err := server.DecodeVerdict(body)
	if err != nil {
		t.Fatal(err)
	}
	return v, cached
}

// TestHitAnsweredWhileWorkerBusy: a cache hit is answered on its
// connection while the only worker is stuck on a miss, instead of
// queueing behind it.
func TestHitAnsweredWhileWorkerBusy(t *testing.T) {
	b := newBlockOnce()
	_, addr := startServer(t, server.Config{Workers: 1, OnVerdict: b.hook})
	t.Cleanup(b.unblock) // runs before the server's cleanup closes it
	payloads := benignPayloads(t, 41, 2)
	hit, miss := payloads[0], payloads[1]

	conn, br := rawConn(t, addr)
	if _, cached := scanRaw(t, conn, br, 1, hit); cached {
		t.Fatal("warm-up scan reported cached")
	}
	b.armed.Store(true)
	if _, err := conn.Write(server.AppendScanRequest(nil, 2, miss)); err != nil {
		t.Fatal(err)
	}
	<-b.blocked // the worker holds the miss's verdict
	v, cached := scanRaw(t, conn, br, 3, hit)
	if !cached {
		t.Fatal("repeated payload not answered from the cache")
	}
	b.unblock()
	typ, id, body := readResponse(t, conn, br)
	if typ != server.MsgVerdict || id != 2 {
		t.Fatalf("miss answered with type 0x%02x id %d", typ, id)
	}
	if _, cached, err := server.DecodeVerdict(body); err != nil || cached {
		t.Fatalf("miss verdict cached=%v err=%v", cached, err)
	}
	if v.Threshold <= 0 {
		t.Fatalf("implausible cached verdict %+v", v)
	}
}

// TestPipelinedHitsAndMisses: one write carrying interleaved hits and
// misses — frames that straddle read-buffer refills and one larger
// than the read buffer included — gets exactly one response per
// request, each with its own id and the right verdict.
func TestPipelinedHitsAndMisses(t *testing.T) {
	det, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, server.Config{Detector: det, Workers: 2, QueueDepth: 64})
	hot := benignPayloads(t, 43, 3)
	cold := benignPayloads(t, 44, 12)
	cold = append(cold, append(append(append([]byte(nil), cold[0]...), cold[1]...), make([]byte, 70<<10)...))

	conn, br := rawConn(t, addr)
	for i, p := range hot {
		scanRaw(t, conn, br, uint64(1000+i), p)
	}

	type want struct {
		mel    int
		cached bool
	}
	wants := map[uint64]want{}
	var stream []byte
	id := uint64(1)
	for i, c := 0, 0; c < len(cold); i++ {
		p, cached := hot[i%len(hot)], true
		if i%2 == 1 {
			p, cached = cold[c], false
			c++
		}
		v, err := det.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		wants[id] = want{v.MEL, cached}
		stream = server.AppendScanRequest(stream, id, p)
		id++
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	for n := len(wants); n > 0; n-- {
		typ, gotID, body := readResponse(t, conn, br)
		w, ok := wants[gotID]
		if typ != server.MsgVerdict || !ok {
			t.Fatalf("unexpected response type 0x%02x id %d", typ, gotID)
		}
		delete(wants, gotID)
		v, cached, err := server.DecodeVerdict(body)
		if err != nil {
			t.Fatal(err)
		}
		if v.MEL != w.mel || cached != w.cached {
			t.Fatalf("id %d: MEL %d cached %v, want MEL %d cached %v", gotID, v.MEL, cached, w.mel, w.cached)
		}
	}
	// A trailing request's answer must be the next frame: no request
	// above was answered twice.
	if _, cached := scanRaw(t, conn, br, 9999, hot[0]); !cached {
		t.Fatal("sentinel hit not cached")
	}
}

// TestHitFlushedBeforePartialFrame: a hit followed by the first half of
// the next frame is answered at once; the half frame does not hold the
// response back until the rest of it arrives.
func TestHitFlushedBeforePartialFrame(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	payloads := benignPayloads(t, 45, 2)
	conn, br := rawConn(t, addr)
	scanRaw(t, conn, br, 1, payloads[0])

	next := server.AppendScanRequest(nil, 3, payloads[1])
	half := len(next) / 2
	if _, err := conn.Write(append(server.AppendScanRequest(nil, 2, payloads[0]), next[:half]...)); err != nil {
		t.Fatal(err)
	}
	typ, id, body := readResponse(t, conn, br)
	if typ != server.MsgVerdict || id != 2 {
		t.Fatalf("response type 0x%02x id %d, want the hit's verdict (id 2)", typ, id)
	}
	if _, cached, err := server.DecodeVerdict(body); err != nil || !cached {
		t.Fatalf("hit verdict cached=%v err=%v", cached, err)
	}
	if _, err := conn.Write(next[half:]); err != nil {
		t.Fatal(err)
	}
	if typ, id, _ := readResponse(t, conn, br); typ != server.MsgVerdict || id != 3 {
		t.Fatalf("response type 0x%02x id %d, want the completed frame's verdict (id 3)", typ, id)
	}
}

// TestHitDuringDrainShutsDown: once Close has begun, a frame that would
// be a cache hit is refused with ErrShuttingDown like any other, while
// the hit already being answered completes.
func TestHitDuringDrainShutsDown(t *testing.T) {
	b := newBlockOnce()
	srv, addr := startServer(t, server.Config{OnVerdict: b.hook})
	t.Cleanup(b.unblock) // runs before the server's cleanup closes it
	p := benignPayloads(t, 47, 1)[0][:256]
	conn, br := rawConn(t, addr)
	scanRaw(t, conn, br, 1, p)

	// Both hits arrive in one small write, so the second is already in
	// the read buffer while the first is parked in the hook.
	b.armed.Store(true)
	if _, err := conn.Write(server.AppendScanRequest(server.AppendScanRequest(nil, 2, p), 3, p)); err != nil {
		t.Fatal(err)
	}
	<-b.blocked
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for srv.Health().Status != server.HealthDraining {
		time.Sleep(time.Millisecond)
	}
	b.unblock()

	got := map[uint64]byte{}
	for len(got) < 2 {
		typ, id, body := readResponse(t, conn, br)
		got[id] = typ
		if id == 3 {
			code, _, err := server.DecodeError(body)
			if typ != server.MsgError || err != nil || !errors.Is(server.ErrorForCode(code, ""), server.ErrShuttingDown) {
				t.Fatalf("hit during drain answered type 0x%02x code %d, want ErrShuttingDown", typ, code)
			}
		}
	}
	if got[2] != server.MsgVerdict {
		t.Fatalf("hit accepted before drain answered with type 0x%02x", got[2])
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the drain")
	}
}
