// Package decoderoot violates hotalloc and hotpath from a frame
// decoder: a package-level function named Decode is a packet-path root
// by name (no method root reaches the decoder — frames are decoded
// before any HandleCapture sees them), and the walk follows explicitly
// instantiated generic calls. It landed with the frame decoder rewrite
// (commit 1b11f17): alloc[T] is stack.newFrame's shape, which the walk
// reached, and the rule caught, only once calleeOf resolved explicit
// instantiations.
package decoderoot

import (
	"errors"
	"fmt"
)

var errShort = errors.New("decoderoot: short frame")

// header is a decoded layer.
type header struct {
	kind    byte
	payload []byte
}

// Decode is a packet-path root by name.
func Decode(raw []byte) (*header, error) {
	if len(raw) < 2 {
		return nil, fmt.Errorf("decoderoot: %d bytes: %w", len(raw), errShort) // want hotpath
	}
	h := alloc[header]()
	h.kind, h.payload = raw[0], raw[1:]
	scratch := new(header) // want hotalloc
	scratch.kind = h.kind
	return h, nil
}

// alloc is reached through an explicit instantiation, alloc[header]().
func alloc[T any]() *T {
	return new(T) // want hotalloc
}
