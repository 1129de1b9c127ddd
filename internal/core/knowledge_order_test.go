package core

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

// TestKnowledgeOrderIsAFunctionOfTheFrames: the same frames replayed
// into two fresh nodes publish the same knowledge changes in the same
// order — the order the change stream, OnKnowledge subscribers and the
// durable journal see. Traffic Statistics once walked Go maps and the
// order of its changes differed from run to run; every sensing module
// now publishes in frame, then kind order.
func TestKnowledgeOrderIsAFunctionOfTheFrames(t *testing.T) {
	src := netip.MustParseAddr("192.168.1.2")
	var frames []*packet.Captured
	at := t0
	for w := 0; w < 4; w++ {
		for d := 0; d < 32; d++ {
			if (d+w)%5 == 0 {
				continue // a destination quiet for a window publishes 0
			}
			dst := netip.AddrFrom4([4]byte{192, 168, 2, byte(d)})
			for _, raw := range [][]byte{
				stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, uint16(d), 64),
				stack.BuildICMPEcho(dst, src, icmp.TypeEchoReply, 1, uint16(d), 64),
				stack.BuildTCP(src, dst, 4000, 80, tcp.FlagSYN, 1, 0, uint16(d), nil),
				stack.BuildUDP(src, dst, 5000, 53, uint16(d), []byte{1}),
			} {
				at = at.Add(time.Millisecond)
				frames = append(frames, mkCap(t, packet.MediumWiFi, raw, at, -60-float64(d%4)))
			}
		}
		at = at.Add(5 * time.Second)
	}
	replay := func() []string {
		k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		var seq []string
		k.OnKnowledge(func(kg knowledge.Knowgget) {
			seq = append(seq, fmt.Sprintf("%s@%s=%s", kg.Label, kg.Entity, kg.Value))
		})
		for _, c := range frames {
			cp := *c
			k.HandleCapture(&cp)
		}
		return seq
	}
	first := replay()
	if len(first) < 100 {
		t.Fatalf("only %d knowledge changes: the traffic does not exercise the publication order", len(first))
	}
	for run := 0; run < 3; run++ {
		if again := replay(); !slices.Equal(first, again) {
			t.Fatalf("replay %d published %d changes in another order than the first's %d", run+1, len(again), len(first))
		}
	}
}
