package flow

import (
	"net/netip"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

// TestPrivateTrackersByDefault: every table owns its registry, so two
// tables — two shards of one node — never share a tracker.
func TestPrivateTrackersByDefault(t *testing.T) {
	tblA := NewTable(Config{})
	tblB := NewTable(Config{})
	mask := MaskOf(packet.KindICMPEchoReply)
	wA := tblA.VictimWindow(mask, 5*time.Second)
	wB := tblB.VictimWindow(mask, 5*time.Second)
	if wA == wB {
		t.Error("independent tables shared a victim window")
	}
	wA.Release()
	wB.Release()
}

// TestVictimWindowShardSkew: the window is read at the reader's capture
// time against time-sorted storage, so a capture stamped a whole
// episode ahead (a trace merged from two sniffers) must neither show up
// in an earlier reader's window nor destroy it — the earlier threshold
// probe still has to fire.
func TestVictimWindowShardSkew(t *testing.T) {
	w := NewVictimWindow(MaskOf(packet.KindTCPSYN), 5*time.Second)
	mk := func(src packet.NodeID, at time.Time) *packet.Captured {
		return &packet.Captured{Kind: packet.KindTCPSYN, Src: src, Dst: "v", Time: at}
	}
	// An event from the next episode, 20s ahead, arrives first.
	ahead := t0.Add(20 * time.Second)
	w.Observe(obs(mk("fast", ahead)))
	// This episode's burst follows — out of timestamp order.
	for i := 0; i < 10; i++ {
		w.Observe(obs(mk(packet.NodeID(rune('a'+i)), t0.Add(time.Duration(i)*100*time.Millisecond))))
	}
	lagNow := t0.Add(time.Second)
	if got := w.Len(hid("v"), nanos(lagNow)); got != 10 {
		t.Errorf("laggard window = %d, want 10 (the ahead insert destroyed or polluted it)", got)
	}
	if got := w.Len(hid("v"), nanos(ahead)); got != 1 {
		t.Errorf("ahead window = %d, want 1 (stale episode leaked forward)", got)
	}
	if w.Len(hid("v"), nanos(lagNow)) < 10 || !NewCooldown().Pass("v", lagNow, 10*time.Second) {
		t.Error("laggard threshold probe failed after an out-of-order insert")
	}
	evs := w.Events(nil, hid("v"), nanos(lagNow))
	if len(evs) != 10 || evs[0].Src != "a" || evs[9].Src != "j" {
		t.Errorf("laggard Events = %d entries (%v...), want the in-window 10 in time order", len(evs), evs[0].Src)
	}
}

// TestHandshakeShardSkew: completion counts are likewise read-side
// windowed against sorted storage.
func TestHandshakeShardSkew(t *testing.T) {
	hs := NewTCPHandshakes(5 * time.Second)
	srv := netip.MustParseAddr("10.0.0.99")
	hshake := func(cli netip.Addr, at time.Time) {
		syn, err := stack.Decode(packet.MediumWired, stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagSYN, 1, 0, 1, nil))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		syn.Time = at
		hs.Observe(obs(syn))
		ack, err := stack.Decode(packet.MediumWired, stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagACK, 2, 100, 2, nil))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		ack.Time = at.Add(50 * time.Millisecond)
		hs.Observe(obs(ack))
	}
	// A handshake completes 20s ahead, then two complete in this
	// episode — out of timestamp order.
	hshake(netip.MustParseAddr("10.0.0.1"), t0.Add(20*time.Second))
	hshake(netip.MustParseAddr("10.0.0.2"), t0)
	hshake(netip.MustParseAddr("10.0.0.3"), t0)
	dst := packet.NodeID(srv.String())
	if got := hs.Completions(hid(dst), nanos(t0.Add(time.Second))); got != 2 {
		t.Errorf("laggard completions = %d, want 2", got)
	}
	if got := hs.Completions(hid(dst), nanos(t0.Add(21*time.Second))); got != 1 {
		t.Errorf("ahead completions = %d, want 1", got)
	}
}
