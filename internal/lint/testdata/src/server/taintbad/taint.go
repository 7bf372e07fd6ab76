// Package taintbad is the negative taintcheck fixture: a serving-path
// package ("server" segment) where wire-derived lengths reach
// allocations, indexes, and slice bounds with no dominating guard.
package taintbad

import (
	"bufio"
	"encoding/binary"
	"io"
)

// readFrame sizes the body buffer straight from the wire length.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	body := make([]byte, n) // unguarded allocation size
	_, err := io.ReadFull(r, body)
	return body, err
}

// parseLen never misuses the value itself — it only returns it. The
// defect surfaces in callers, through the function summary.
func parseLen(r io.Reader) (int, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(hdr[:])), nil
}

// viaSummary allocates from parseLen's wire-derived result.
func viaSummary(r io.Reader) []byte {
	n, err := parseLen(r)
	if err != nil {
		return nil
	}
	return make([]byte, n) // tainted through the interprocedural summary
}

// grab uses its parameter as a slice bound: harmless for callers that
// vet the value, a defect where the argument comes off the wire. The
// sink is recorded in grab's summary, not reported here.
func grab(p []byte, n int) []byte {
	return p[:n]
}

// viaParam hands a wire-derived count to grab unvetted.
func viaParam(r io.Reader, p []byte) []byte {
	n, err := parseLen(r)
	if err != nil {
		return nil
	}
	return grab(p, n) // hostile value enters grab's slice bound
}

// wrongBranch guards the small side and allocates on the unguarded
// one: a guard must dominate the sink, not merely precede it.
func wrongBranch(r io.Reader) []byte {
	n, err := parseLen(r)
	if err != nil {
		return nil
	}
	if n < 64 {
		return make([]byte, n) // clean: n < 64 holds on this edge
	}
	return make([]byte, n) // n >= 64 is not an upper bound
}

// pick indexes a small table with a wire byte widened to int, which
// the 256-entry-table exemption must not cover.
func pick(r io.Reader) byte {
	var hdr [1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0
	}
	var tab [16]byte
	i := int(hdr[0])
	return tab[i]
}

// peekFrame sizes an allocation from a length it peeked at in place:
// peeked bytes are as hostile as read ones.
func peekFrame(br *bufio.Reader) []byte {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil
	}
	return make([]byte, binary.BigEndian.Uint32(hdr))
}
