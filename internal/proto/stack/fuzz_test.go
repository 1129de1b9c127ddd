package stack

import (
	"testing"

	"kalis/internal/packet"
)

// internResident reports whether the identity is in the intern table.
func internResident(id packet.NodeID) bool {
	for i := range internTable {
		if e := internTable[i].Load(); e != nil && e.id == id {
			return true
		}
	}
	return false
}

// FuzzStackDecode drives the one parser that eats attacker bytes with
// arbitrary (medium, raw) pairs. The contract: Decode never panics; it
// agrees with the per-layer reference decoder on error-vs-ok, error
// text and every decoded field (the oracle of
// TestDecodeMatchesReference); and decoding is allocation-bounded — at
// most two allocations (the frame value, plus a ZigBee source-route
// relay list) once the frame's identities are interned, and never more
// than eight (two more per identity on an intern miss).
//
// The seed corpus under testdata/fuzz/FuzzStackDecode is one frame
// from each Build* helper (see builtFrames).
func FuzzStackDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, medium uint8, raw []byte) {
		m := packet.Medium(medium)
		c := diffDecode(t, "fuzz", m, raw)
		decode := func() { _, _ = Decode(m, raw) }
		if allocs := testing.AllocsPerRun(1, decode); allocs > 8 {
			t.Fatalf("Decode(%v, % x): %.0f allocations, want at most 8", m, raw, allocs)
		}
		if c == nil {
			return
		}
		// Identities that hash to one slot evict each other on every
		// decode; only a frame whose identities all stayed resident
		// is in the steady state the two-allocation bound describes.
		for _, id := range []packet.NodeID{c.Src, c.Dst, c.Transmitter} {
			if id != packet.Broadcast && !internResident(id) {
				return
			}
		}
		if allocs := testing.AllocsPerRun(1, decode); allocs > 2 {
			t.Fatalf("Decode(%v, % x): %.0f allocations with every identity interned, want at most 2", m, raw, allocs)
		}
	})
}
