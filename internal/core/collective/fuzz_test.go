package collective

import (
	"reflect"
	"testing"

	"kalis/internal/core/knowledge"
)

// fuzzSeal produces a valid sealed envelope from a peer node, so the
// corpus starts from well-formed ciphertext the mutator can truncate,
// bit-flip and splice.
func fuzzSeal(f *testing.F, payload []byte) []byte {
	f.Helper()
	kb := knowledge.NewBase("K9")
	n, err := NewNode(kb, NewHub().Endpoint("seed"), "secret")
	if err != nil {
		f.Fatal(err)
	}
	data, err := n.seal(payload)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzNodeReceive drives the collective decrypt + binary-decode path
// with arbitrary datagrams: truncated, corrupted and replayed inputs
// must never panic, never partially apply (decodeWire validates the
// whole message before anything touches the KB), and never mutate the
// Knowledge Base on malformed input. The seeds cover every message
// kind plus broken envelopes (a flipped ciphertext bit, a truncated
// datagram, a garbage prefix).
func FuzzNodeReceive(f *testing.F) {
	beacon := encodeWire(&wireMsg{kind: kindBeacon, sender: "K9"})
	gossip := encodeWire(&wireMsg{
		kind:   kindGossip,
		sender: "K9",
		digest: []digestEntry{{creator: "K9", version: 3}, {creator: "K7", version: 12}},
		sections: []deltaSection{{
			creator: "K9", from: 2, upTo: 3,
			entries: []knowledge.Knowgget{{Label: "SuspectBlackhole", Entity: "0x0005", Value: "7", Version: 3}},
		}},
	})
	deltaReq := encodeWire(&wireMsg{
		kind:   kindDeltaReq,
		sender: "K9",
		want:   []digestEntry{{creator: "K1", version: 0}, {creator: "K7", version: 4}},
	})
	delta := encodeWire(&wireMsg{
		kind:   kindDelta,
		sender: "K9",
		sections: []deltaSection{{
			creator: "K7", from: 0, upTo: 2,
			entries: []knowledge.Knowgget{
				{Label: "Mediums.wifi", Value: "true", Version: 1},
				{Label: "EmergentSource", Entity: "0x0009", Value: "7", Version: 2},
			},
		}},
	})
	forged := encodeWire(&wireMsg{
		kind:   kindDelta,
		sender: "K9",
		sections: []deltaSection{{
			creator: "K1", from: 0, upTo: 9,
			entries: []knowledge.Knowgget{{Label: "Multihop", Value: "false", Version: 9}},
		}},
	})

	f.Add([]byte{})
	f.Add([]byte{0x01})
	for _, payload := range [][]byte{beacon, gossip, deltaReq, delta, forged} {
		f.Add(fuzzSeal(f, payload))
	}
	// One flipped ciphertext bit: the GCM tag, the only integrity
	// check on the wire, must refuse it.
	sealed := fuzzSeal(f, gossip)
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add(sealed[:len(sealed)/2])
	f.Add(append([]byte("garbage prefix"), sealed...))

	f.Fuzz(func(t *testing.T, data []byte) {
		kb := knowledge.NewBase("K1")
		kb.Put("Multihop", "true")
		n, err := NewNode(kb, NewHub().Endpoint("a1"), "secret")
		if err != nil {
			t.Fatal(err)
		}
		before := kb.Snapshot()

		n.receive("peer", data)
		_, _, malformedFirst := n.Resilience()
		after := kb.Snapshot()
		if malformedFirst > 0 && !reflect.DeepEqual(before, after) {
			t.Fatalf("malformed datagram mutated the KB:\nbefore %+v\nafter  %+v", before, after)
		}

		// Replay: delivering the identical datagram again must be
		// idempotent — version-guarded deltas re-apply nothing, and
		// forgeries and junk stay rejected.
		n.receive("peer", data)
		replayed := kb.Snapshot()
		if !reflect.DeepEqual(after, replayed) {
			t.Fatalf("replayed datagram mutated the KB:\nfirst  %+v\nreplay %+v", after, replayed)
		}

		// The local knowgget is ours alone; no datagram may overwrite it
		// — AcceptGossip rejects any section claiming our creator ID.
		if kg, ok := kb.Get("K1$Multihop"); !ok || kg.Value != "true" {
			t.Fatalf("local knowgget overwritten: %+v ok=%v", kg, ok)
		}
	})
}

// FuzzDecodeWire fuzzes the raw binary codec under the envelope:
// arbitrary bytes either decode to a message that re-encodes
// byte-identically (the codec is canonical) or fail cleanly — no
// panics, no unbounded allocations (the decode caps). No checksum
// stands in front of the parser, so every mutation reaches it.
func FuzzDecodeWire(f *testing.F) {
	f.Add(encodeWire(&wireMsg{kind: kindBeacon, sender: "K9"}))
	f.Add(encodeWire(&wireMsg{
		kind:   kindGossip,
		sender: "K9",
		digest: []digestEntry{{creator: "K9", version: 3}},
	}))
	f.Add(encodeWire(&wireMsg{
		kind:   kindDelta,
		sender: "K9",
		sections: []deltaSection{{
			creator: "K7", from: 1, upTo: 2,
			entries: []knowledge.Knowgget{{Label: "L", Entity: "E", Value: "V", Version: 2}},
		}},
	}))
	f.Add([]byte{})
	f.Add([]byte{wireVersion, kindGossip})
	// Table references, front-coded creators and the overlong
	// uvarint the codec must refuse.
	f.Add(wireFixture)
	f.Add(encodeWire(&wireMsg{
		kind:   kindDeltaReq,
		sender: "N00001",
		want:   []digestEntry{{creator: "N00007", version: 0}, {creator: "N00012", version: 4}, {creator: "N00120", version: 1}},
	}))
	f.Add(encodeWire(&wireMsg{
		kind:   kindDelta,
		sender: "N00001",
		sections: []deltaSection{
			{creator: "N00007", from: 0, upTo: 2, entries: []knowledge.Knowgget{
				{Label: "FleetKey0", Value: "3", Version: 1},
				{Label: "FleetKey1", Value: "3", Version: 2},
			}},
			{creator: "N00001", from: 4, upTo: 5, entries: []knowledge.Knowgget{
				{Label: "FleetKey0", Entity: "N00007", Value: "9", Version: 5},
			}},
		},
	}))
	f.Add([]byte{wireVersion, kindBeacon, 0x82, 0x00, 'K', '9'})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeWire(data)
		if err != nil {
			return
		}
		// Round-trip: any message that decodes must re-encode to the
		// exact input (the codec is canonical — one representation per
		// message).
		if got := encodeWire(m); !reflect.DeepEqual(got, data) {
			t.Fatalf("decode/encode not canonical:\nin  %x\nout %x", data, got)
		}
	})
}
