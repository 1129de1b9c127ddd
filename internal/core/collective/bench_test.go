package collective

import (
	"fmt"
	"strconv"
	"testing"

	"kalis/internal/core/knowledge"
)

var benchSink []byte

// benchGossipMsg is a fleet-sized gossip message: a 256-creator
// version vector plus a 32-entry piggyback section.
func benchGossipMsg() *wireMsg {
	msg := &wireMsg{kind: kindGossip, sender: "K0"}
	msg.digest = make([]digestEntry, 0, 256)
	for i := 0; i < 256; i++ {
		msg.digest = append(msg.digest, digestEntry{creator: fmt.Sprintf("node-%04d", i), version: uint64(i * 7)})
	}
	sec := deltaSection{creator: "K0", from: 100, upTo: 132}
	for i := 0; i < 32; i++ {
		sec.entries = append(sec.entries, knowledge.Knowgget{
			Label:   "SignalStrength",
			Entity:  fmt.Sprintf("0x%04x", i),
			Value:   "-67.5",
			Version: uint64(101 + i),
		})
	}
	msg.sections = []deltaSection{sec}
	return msg
}

// BenchmarkDigestEncode measures encoding benchGossipMsg — the
// per-round, per-target serialization cost.
func BenchmarkDigestEncode(b *testing.B) {
	msg := benchGossipMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = encodeWire(msg)
	}
}

// benchDeltaMsg is a fleet-shaped delta message: one section per
// wanted creator, each a few entries of labels every creator shares.
func benchDeltaMsg() *wireMsg {
	msg := &wireMsg{kind: kindDelta, sender: "N00000"}
	for c := 1; c <= 64; c++ {
		sec := deltaSection{creator: fmt.Sprintf("N%05d", c), from: 10, upTo: 18}
		for i := 0; i < 8; i++ {
			sec.entries = append(sec.entries, knowledge.Knowgget{
				Label:   fmt.Sprintf("FleetKey%d", i%4),
				Value:   strconv.Itoa(c),
				Version: uint64(11 + i),
			})
		}
		msg.sections = append(msg.sections, sec)
	}
	return msg
}

// BenchmarkWireDecode measures decoding benchGossipMsg and
// benchDeltaMsg, as a receiver does once per message it opens.
func BenchmarkWireDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		msg  *wireMsg
	}{{"gossip", benchGossipMsg()}, {"delta", benchDeltaMsg()}} {
		data := encodeWire(bc.msg)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeWire(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGossipRound measures one full anti-entropy round from the
// sender's side — dirty flush, digest build, encode, seal, fan-out
// send — against a 64-peer table with one dirty key per round.
func BenchmarkGossipRound(b *testing.B) {
	hub := NewHub()
	kb := knowledge.NewBase("K0")
	n, err := NewNode(kb, hub.Endpoint("p0"), "secret")
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		addr := fmt.Sprintf("p%d", i)
		hub.Endpoint(addr) // sink endpoint: no handler, datagrams dropped
		n.AddPeer(fmt.Sprintf("K%d", i), addr)
	}
	// Collective state from 32 creators so the digest has fleet shape.
	for c := 1; c <= 32; c++ {
		creator := fmt.Sprintf("K%d", c)
		for k := 0; k < 4; k++ {
			n.kb.AcceptGossip(creator, knowledge.Knowgget{
				Label:   "TrafficFrequency.TCPSYN",
				Entity:  fmt.Sprintf("0x%04x", k),
				Value:   "12.5",
				Creator: creator,
				Version: uint64(k + 1),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb.PutCollective("MonitoredNodes", "", strconv.Itoa(i))
		n.Gossip()
	}
}
