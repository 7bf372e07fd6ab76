package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
)

// FuzzWire drives the frame reader with arbitrary byte streams and
// reader limits. The wire layer's contract under hostile input is:
// never panic, never allocate the declared (attacker-controlled) frame
// length, and fail only with typed errors the serve loop knows how to
// classify — errShortFrame, errFrameTooLarge, or an io read error.
// Frames that do parse must survive a re-encode/re-decode round trip.
// The server's in-place reader, nextFrame, must agree with readFrame
// frame by frame on the whole stream at every read-buffer size.
func FuzzWire(f *testing.F) {
	f.Add(AppendScanRequest(nil, 1, []byte("\x90\x90\xC3")), uint32(1<<16))
	f.Add(appendVerdict(nil, 7, core.Verdict{MEL: 12, BestStart: 3, Threshold: 6.5, Malicious: true}, true), uint32(1<<16))
	f.Add(appendError(nil, 9, CodeOverloaded, ErrOverloaded.Error()), uint32(1<<16))
	f.Add(AppendScanContentRequest(nil, 3, []byte("H4sIAAAA wrapped body")), uint32(1<<16))
	f.Add(appendVerdictContent(nil, 11, core.Verdict{
		MEL: 87, BestStart: 9, Threshold: 43.7, Malicious: true,
		ViewIndex: 2, DecodeChain: "gzip>base64", TriageScore: 0.91,
	}, false), uint32(1<<16))
	f.Add(appendVerdictContent(nil, 12, core.Verdict{TriageCleared: true, TriageScore: 0.18, Threshold: 40}, true), uint32(1<<16))
	// Truncated: length prefix promises more than the stream holds.
	f.Add([]byte{0, 0, 4, 0, 0x01}, uint32(1<<16))
	// Oversized: length prefix exceeds the reader's limit.
	f.Add(AppendScanRequest(nil, 2, make([]byte, 512)), uint32(64))
	// Short: declared body smaller than the fixed header.
	f.Add([]byte{0, 0, 0, 2, 0x01, 0x00}, uint32(1<<16))
	f.Add([]byte{}, uint32(0))
	// Frames one byte under, exactly at, and one byte over each read
	// buffer size nextFrame is driven with, then a truncated tail.
	var edges []byte
	for _, size := range wireBufSizes {
		for _, d := range []int{-1, 0, 1} {
			edges = AppendScanRequest(edges, uint64(size), make([]byte, size+d-4-headerLen))
		}
	}
	f.Add(edges, uint32(1<<16))
	f.Add(append(edges, 0, 0, 1, 0, MsgScan, 1), uint32(1<<16))
	// The same frames with a limit that makes the largest oversized.
	f.Add(edges, uint32(wireBufSizes[len(wireBufSizes)-1]-4))

	f.Fuzz(func(t *testing.T, data []byte, maxBody uint32) {
		// Cap the limit so a parsed frame's payload stays small enough to
		// re-encode cheaply; the limit itself is still fuzzed below it.
		maxBody %= 1 << 20

		for _, size := range wireBufSizes {
			checkNextFrame(t, data, maxBody, size)
		}

		typ, id, payload, err := readFrame(bytes.NewReader(data), maxBody)
		if err != nil {
			if !errors.Is(err, errShortFrame) && !errors.Is(err, errFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped frame error: %v", err)
			}
			if errors.Is(err, errFrameTooLarge) && len(payload) != 0 {
				t.Fatalf("oversized frame returned %d payload bytes; must discard", len(payload))
			}
			return
		}
		if uint64(len(payload))+headerLen > uint64(maxBody) {
			t.Fatalf("accepted %d-byte payload beyond maxBody %d", len(payload), maxBody)
		}

		// Anything readFrame accepts must round-trip bit-exactly.
		again := appendFrame(nil, typ, id, payload)
		typ2, id2, payload2, err := readFrame(bytes.NewReader(again), uint32(len(again)))
		if err != nil {
			t.Fatalf("re-decoding a valid frame: %v", err)
		}
		if typ2 != typ || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: (%d,%d,%x) != (%d,%d,%x)",
				typ2, id2, payload2, typ, id, payload)
		}

		// The payload decoders must be total: typed error or success,
		// never a panic, regardless of the declared message type.
		if v, cached, err := decodeVerdict(payload); err == nil {
			reenc := appendVerdict(nil, id, v, cached)
			_, _, vp, rerr := readFrame(bytes.NewReader(reenc), uint32(len(reenc)))
			if rerr != nil {
				t.Fatalf("re-reading verdict frame: %v", rerr)
			}
			v2, cached2, rerr := decodeVerdict(vp)
			if rerr != nil {
				t.Fatalf("re-decoding verdict payload: %v", rerr)
			}
			// NaN thresholds survive as NaN; compare bitwise via encode.
			if cached2 != cached || v2.Malicious != v.Malicious || v2.TextOnly != v.TextOnly ||
				v2.MEL != v.MEL || v2.BestStart != v.BestStart {
				t.Fatalf("verdict round trip changed: %+v != %+v", v2, v)
			}
		}
		if v, cached, err := decodeVerdictContent(payload); err == nil {
			reenc := appendVerdictContent(nil, id, v, cached)
			_, _, vp, rerr := readFrame(bytes.NewReader(reenc), uint32(len(reenc)))
			if rerr != nil {
				t.Fatalf("re-reading content verdict frame: %v", rerr)
			}
			v2, cached2, rerr := decodeVerdictContent(vp)
			if rerr != nil {
				t.Fatalf("re-decoding content verdict payload: %v", rerr)
			}
			if cached2 != cached || v2.Malicious != v.Malicious || v2.MEL != v.MEL ||
				v2.ViewIndex != v.ViewIndex || v2.DecodeChain != v.DecodeChain ||
				v2.TriageCleared != v.TriageCleared {
				t.Fatalf("content verdict round trip changed: %+v != %+v", v2, v)
			}
		}
		if code, msg, err := decodeError(payload); err == nil {
			reenc := appendError(nil, id, code, msg)
			_, _, ep, rerr := readFrame(bytes.NewReader(reenc), uint32(len(reenc)))
			if rerr != nil {
				t.Fatalf("re-reading error frame: %v", rerr)
			}
			code2, msg2, rerr := decodeError(ep)
			if rerr != nil || code2 != code || msg2 != msg {
				t.Fatalf("error round trip changed: (%d,%q,%v) != (%d,%q)", code2, msg2, rerr, code, msg)
			}
		}
	})
}

// wireBufSizes are the read-buffer sizes FuzzWire drives nextFrame
// through: bufio's 16-byte minimum and sizes around and above it.
var wireBufSizes = []int{16, 17, 64, 100}

// countingReader counts Read calls on the stream under a bufio.Reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// checkNextFrame reads data to its end through readFrame and, in step,
// through nextFrame over a size-byte bufio.Reader, and fails on the
// first frame or error where the two differ. A frame frameBuffered
// reports as whole must come out of the buffer without a read.
func checkNextFrame(t *testing.T, data []byte, maxBody uint32, size int) {
	t.Helper()
	ref := bytes.NewReader(data)
	cr := &countingReader{r: bytes.NewReader(data)}
	br := bufio.NewReaderSize(cr, size)
	for {
		typ, id, payload, err := readFrame(ref, maxBody)
		whole, reads := frameBuffered(br), cr.reads
		typ2, id2, payload2, used, err2 := nextFrame(br, maxBody)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("buffer %d: nextFrame error %v, readFrame %v", size, err2, err)
		}
		if typ2 != typ || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("buffer %d: nextFrame (%d,%d,%x), readFrame (%d,%d,%x)",
				size, typ2, id2, payload2, typ, id, payload)
		}
		if used != 0 && (used > size || used != 4+headerLen+len(payload2)) {
			t.Fatalf("buffer %d: in-place frame of %d payload bytes used %d", size, len(payload2), used)
		}
		if whole && cr.reads != reads {
			t.Fatalf("buffer %d: frameBuffered reported a whole frame, but reading it read the stream", size)
		}
		if _, err := br.Discard(used); err != nil {
			t.Fatalf("buffer %d: discarding an in-place frame: %v", size, err)
		}
		if err != nil && !errors.Is(err, errFrameTooLarge) {
			return
		}
	}
}
