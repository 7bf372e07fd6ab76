// Package taintgood is the positive taintcheck fixture: every
// wire-derived value passes a dominating bounds guard — or one of the
// deliberately exempt idioms — before it sizes, indexes, or limits
// anything.
package taintgood

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

const maxFrame = 1 << 16

var errTooBig = errors.New("frame exceeds budget")

// readFrame bounds the wire length against the frame budget before
// sizing the body, and drains oversized frames to io.Discard — the
// one io.CopyN destination a hostile count cannot hurt.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return nil, err
		}
		return nil, errTooBig
	}
	body := make([]byte, n) // clean: n <= maxFrame dominates
	_, err := io.ReadFull(r, body)
	return body, err
}

// clamp launders a wire count through min against a constant budget.
func clamp(r io.Reader) []byte {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	return make([]byte, min(n, 4096))
}

// packed indexes a 256-entry table directly with the wire byte: a
// byte cannot overflow it.
func packed(r io.Reader) uint64 {
	var tab [256]uint64
	var hdr [1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0
	}
	return tab[hdr[0]]
}

// masked bounds a wire offset by masking and by modulo.
func masked(r io.Reader) (byte, byte) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	var ring [64]byte
	return ring[n&63], ring[n%64]
}

// spans mirrors the trace-echo idiom: the guard compares an
// arithmetic function of the wire count against the actual payload
// length, and the count is clean on the surviving edge.
func spans(r io.Reader, rest []byte) []byte {
	var hdr [1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil
	}
	n := int(hdr[0])
	if len(rest) != n*9 {
		return nil
	}
	return rest[:n*9]
}

// take uses its parameter as a slice bound; the sink lands in its
// summary and stays silent while every caller vets the value.
func take(p []byte, n int) []byte {
	return p[:n]
}

// vetted bounds the wire count against the buffer before the call.
func vetted(r io.Reader, p []byte) []byte {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n > len(p) {
		return nil
	}
	return take(p, n)
}

// peekFrame mirrors an in-place frame reader: the peeked length is
// bounded by the reader's buffer before it bounds the frame slice.
func peekFrame(br *bufio.Reader) []byte {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > br.Size()-4 {
		return nil
	}
	frame, err := br.Peek(4 + n)
	if err != nil {
		return nil
	}
	return frame[4 : 4+n]
}
