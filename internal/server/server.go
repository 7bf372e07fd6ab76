package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/tracing"
)

// Server defaults.
const (
	// DefaultMaxPayload bounds one scan request's payload.
	DefaultMaxPayload = 1 << 20
	// DefaultReadTimeout is the per-frame read deadline: a connection
	// idle longer than this is closed.
	DefaultReadTimeout = 2 * time.Minute
	// DefaultWriteTimeout is the per-flush write deadline.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultRequestTimeout bounds a request from arrival to verdict.
	DefaultRequestTimeout = 10 * time.Second
	// connOutDepth buffers per-connection responses between the workers
	// and the connection's writer goroutine.
	connOutDepth = 64
)

// Config configures a Server.
type Config struct {
	// Detector performs the scans; required.
	Detector *core.Detector
	// Workers, QueueDepth, and CacheSize configure the shared pool (see
	// PoolConfig).
	Workers    int
	QueueDepth int
	CacheSize  int
	// MaxPayload bounds one request's payload bytes; <= 0 selects
	// DefaultMaxPayload. Oversized requests get ErrPayloadTooLarge.
	MaxPayload int
	// ReadTimeout closes connections idle longer than this between
	// frames; 0 selects DefaultReadTimeout, negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush; 0 selects
	// DefaultWriteTimeout, negative disables.
	WriteTimeout time.Duration
	// RequestTimeout is the per-request deadline from frame arrival to
	// verdict; 0 selects DefaultRequestTimeout, negative disables.
	RequestTimeout time.Duration
	// Metrics receives pool and server instruments; nil creates a
	// private registry.
	Metrics *telemetry.Registry
	// Recorder, when set, enables per-scan tracing (see
	// PoolConfig.Recorder). Clients that send MsgScanTraced get their
	// trace id adopted and the stage timings echoed back.
	Recorder *tracing.Recorder
	// OnVerdict, when set, receives every served verdict (see
	// PoolConfig.OnVerdict).
	OnVerdict func(core.Verdict)
	// Content, when set, enables the content scan path
	// (MsgScanContent / MsgScanContentTraced) through this pipeline; see
	// PoolConfig.Content. Without it those requests are answered with
	// CodeBadRequest and clients downgrade to plain scans.
	Content *content.Pipeline
	// Events, when set, journals one wide event per submission outcome;
	// see PoolConfig.Events.
	Events *events.Journal
	// InstrumentDetector, when true, also wires the detector's observer
	// hook into the registry (detector_* metrics). Leave false when the
	// detector is shared and already instrumented elsewhere.
	InstrumentDetector bool
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Server is a running scan daemon: one shared worker pool, any number
// of client connections, each with a reader and a writer goroutine so
// a slow peer never stalls scanning for the others.
type Server struct {
	cfg  Config
	pool *Pool
	reg  *telemetry.Registry

	connsActive *telemetry.Gauge
	connsTotal  *telemetry.Counter
	badFrames   *telemetry.Counter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	// draining is set once, by Close, before it expires the read
	// deadlines; read loops check it without taking mu.
	draining atomic.Bool

	connWG sync.WaitGroup
}

// New validates the configuration and starts the worker pool. The
// server accepts no connections until Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Detector == nil {
		return nil, errors.New("server: nil detector")
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	pool, err := NewPool(PoolConfig{
		Detector:   cfg.Detector,
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		CacheSize:  cfg.CacheSize,
		Metrics:    reg,
		Recorder:   cfg.Recorder,
		OnVerdict:  cfg.OnVerdict,
		Content:    cfg.Content,
		Events:     cfg.Events,
	})
	if err != nil {
		return nil, err
	}
	if cfg.InstrumentDetector {
		InstrumentDetector(cfg.Detector, reg)
	}
	return &Server{
		cfg:         cfg,
		pool:        pool,
		reg:         reg,
		connsActive: reg.Gauge("connections_active", "open client connections"),
		connsTotal:  reg.Counter("connections_total", "client connections accepted"),
		badFrames:   reg.Counter("bad_requests_total", "malformed or unknown request frames"),
		conns:       make(map[net.Conn]struct{}),
	}, nil
}

// Metrics returns the server's registry — mount it with
// telemetry.DebugMux for the /metrics and /debug/pprof endpoints.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Pool returns the shared worker pool, so other ingress paths (the
// proxy) can route scans through the same scheduler and cache.
func (s *Server) Pool() *Pool { return s.pool }

// Serve accepts connections on ln until Close. It takes ownership of
// the listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrShuttingDown
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil // deliberate shutdown
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsActive.Inc()
		go func() {
			defer s.connWG.Done()
			defer s.connsActive.Dec()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drains in-flight requests, closes the
// connections, and shuts the pool down. Requests already accepted get
// their responses; requests arriving during the drain are refused with
// ErrShuttingDown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	ln := s.ln
	// Unblock every reader stuck in a frame read: readers notice the
	// shutdown when the deadline fires and exit through their drain
	// path, which flushes pending responses before closing.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.connWG.Wait()
	s.pool.Close()
	return err
}

// isDraining reports whether shutdown has begun.
func (s *Server) isDraining() bool {
	return s.draining.Load()
}

// handleConn runs one connection. This goroutine reads frames and
// answers verdict-cache hits itself: the payload is hashed where it
// sits in the read buffer and the verdict appended to the connection's
// buffered writer. Misses are copied out and submitted to the pool,
// whose workers hand their responses to the writer goroutine through
// out; dead tears the writer down after it drains whatever is queued.
func (s *Server) handleConn(conn net.Conn) {
	w := &connWriter{conn: conn, timeout: s.cfg.WriteTimeout, bw: bufio.NewWriterSize(conn, 64<<10)}
	out := make(chan []byte, connOutDepth)
	dead := make(chan struct{})
	writerDone := make(chan struct{})
	var reqWG sync.WaitGroup

	go func() {
		defer close(writerDone)
		w.run(out, dead)
	}()

	// respond hands one encoded frame to the writer unless the
	// connection died or the writer already exited on a write error —
	// without the writerDone arm a worker could block forever on a
	// full queue whose consumer is gone.
	respond := func(frame []byte) {
		select {
		case out <- frame:
		case <-dead:
		case <-writerDone:
		}
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	maxBody := uint32(headerLen + s.cfg.MaxPayload + maxFrameSlop)
	used := 0      // bytes the previous frame still occupies in br
	wrote := false // hits appended since the last flush
	for {
		_, _ = br.Discard(used) // used <= br.Buffered(): nextFrame peeked it
		// Hold inline answers back only while another whole frame is
		// buffered: its answer can share the write, but a frame still
		// arriving must not delay them.
		if wrote && !frameBuffered(br) {
			if w.flush() != nil {
				break
			}
			wrote = false
		}
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
			if s.isDraining() {
				// Close may have expired the deadline just before the
				// line above pushed it out again: expire it once more,
				// or the loop would idle until the read timeout.
				_ = conn.SetReadDeadline(time.Now())
			}
		}
		typ, id, payload, n, err := nextFrame(br, maxBody)
		used = n
		if errors.Is(err, errFrameTooLarge) {
			// The oversized body was consumed; answer with the typed
			// error and keep the connection.
			respond(appendError(nil, id, CodeTooLarge,
				fmt.Sprintf("payload exceeds maximum %d", s.cfg.MaxPayload)))
			continue
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.isDraining() {
				s.cfg.Logf("server: %s: idle timeout", conn.RemoteAddr())
			}
			break
		}
		if typ != MsgScan && typ != MsgScanTraced && typ != MsgScanContent && typ != MsgScanContentTraced {
			s.badFrames.Inc()
			respond(appendError(nil, id, CodeBadRequest, fmt.Sprintf("unknown request type 0x%02x", typ)))
			continue
		}
		isContent := typ == MsgScanContent || typ == MsgScanContentTraced
		if isContent && s.cfg.Content == nil {
			s.badFrames.Inc()
			respond(appendError(nil, id, CodeBadRequest, ErrContentDisabled.Error()))
			continue
		}
		// tr is the trace the client asked to have echoed; the pool may
		// still trace an untraced request for its own recorder.
		var tr *tracing.Trace
		if typ == MsgScanTraced || typ == MsgScanContentTraced {
			if len(payload) < traceIDLen {
				s.badFrames.Inc()
				respond(appendError(nil, id, CodeBadRequest, "traced scan shorter than trace id"))
				continue
			}
			var tid tracing.TraceID
			copy(tid[:], payload[:traceIDLen])
			payload = payload[traceIDLen:]
			// Adopt the client's id (a zero id gets a fresh one) so the
			// flight-recorder entry and the client's view share identity.
			tr = tracing.New(tid, len(payload))
		}
		if len(payload) > s.cfg.MaxPayload {
			respond(appendError(nil, id, CodeTooLarge,
				fmt.Sprintf("payload %d exceeds maximum %d", len(payload), s.cfg.MaxPayload)))
			continue
		}
		if s.isDraining() {
			respond(appendError(nil, id, CodeShuttingDown, ErrShuttingDown.Error()))
			continue
		}
		j := job{payload: payload, enqueued: time.Now(), tr: tr, content: isContent}
		if tr == nil {
			j.tr = s.pool.autoTrace(len(payload))
		}
		if s.pool.cache != nil {
			if v, ok := s.pool.lookup(&j); ok {
				if w.writeHit(id, v, isContent, tr) != nil {
					break
				}
				wrote = true
				continue
			}
		}
		if used > 0 {
			// The worker outlives the frame's place in the read buffer.
			j.payload = bytes.Clone(payload)
		}
		if s.cfg.RequestTimeout > 0 {
			j.deadline = j.enqueued.Add(s.cfg.RequestTimeout)
		}
		reqWG.Add(1)
		reqID := id
		j.done = func(v core.Verdict, cached bool, scanErr error) {
			defer reqWG.Done()
			if scanErr != nil {
				respond(appendError(nil, reqID, codeFor(scanErr), scanErr.Error()))
				return
			}
			// The pool finished the trace before invoking done, so the
			// stage durations read here are final.
			respond(appendVerdictFrame(nil, reqID, v, cached, isContent, tr))
		}
		if err := s.pool.enqueue(j); err != nil {
			reqWG.Done()
			respond(appendError(nil, id, codeFor(err), err.Error()))
		}
	}

	// Drain: wait for this connection's in-flight scans so their
	// responses reach out, let the writer flush them, then tear down.
	reqWG.Wait()
	close(dead)
	<-writerDone
	conn.Close()
}

// connWriter is one connection's write side: a buffered writer shared
// by the read loop, which appends cache-hit verdicts in place, and the
// writer goroutine (run), which writes the pool's responses. mu
// serializes the two.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration

	mu sync.Mutex
	bw *bufio.Writer
}

// writeHit appends a cache hit's verdict frame to the buffer, flushing
// first only if the buffer lacks room for it. The frame is built in the
// buffer's free space, so nothing is allocated.
func (w *connWriter) writeHit(id uint64, v core.Verdict, isContent bool, tr *tracing.Trace) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bw.Available() < maxVerdictFrame {
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	_, err := w.bw.Write(appendVerdictFrame(w.bw.AvailableBuffer(), id, v, true, isContent, tr))
	return err
}

// flush writes out whatever the buffer holds.
func (w *connWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// flushLocked is flush with w.mu held: one write under the write
// deadline, skipped when the buffer is empty.
func (w *connWriter) flushLocked() error {
	if w.bw.Buffered() == 0 {
		return nil
	}
	w.setDeadline()
	return w.bw.Flush()
}

// setDeadline bounds the next write to the peer.
func (w *connWriter) setDeadline() {
	if w.timeout > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

// run delivers the pool's responses. It batches whatever responses are
// pending into one buffered flush. On dead — every sender is done — it
// writes what is still queued, flushes, and exits; it also exits on a
// write error.
func (w *connWriter) run(out <-chan []byte, dead <-chan struct{}) {
	for {
		select {
		case frame := <-out:
			if w.writeBatch(frame, out) != nil {
				return
			}
		case <-dead:
			select {
			case frame := <-out:
				_ = w.writeBatch(frame, out)
			default:
				_ = w.flush()
			}
			return
		}
	}
}

// writeBatch writes frame and every response already queued behind it,
// then flushes, all under one hold of w.mu.
func (w *connWriter) writeBatch(frame []byte, out <-chan []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		w.setDeadline()
		if _, err := w.bw.Write(frame); err != nil {
			return err
		}
		select {
		case frame = <-out:
		default:
			return w.flushLocked()
		}
	}
}
