package flow

import (
	"net/netip"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

// TestSharedTrackersAcrossTables: tables given one registry
// (Config.Trackers) serve the same tracker instances and all drive
// them — the sharded-node contract, where a victim's evidence must
// accumulate globally even though its packets hash to different
// shards by source.
func TestSharedTrackersAcrossTables(t *testing.T) {
	reg := NewTrackers()
	tblA := NewTable(Config{Trackers: reg})
	tblB := NewTable(Config{Trackers: reg})
	mask := MaskOf(packet.KindICMPEchoReply)

	wA := tblA.VictimWindow(mask, 5*time.Second)
	wB := tblB.VictimWindow(mask, 5*time.Second)
	if wA != wB {
		t.Fatal("tables sharing a registry yielded distinct victim windows")
	}

	// Spoofed-source flood split across two tables: the shared window
	// must see every event.
	for i := 0; i < 10; i++ {
		src := packet.NodeID(rune('a' + i))
		c := cap1(src, "v", t0.Add(time.Duration(i)*time.Millisecond))
		c.Kind = packet.KindICMPEchoReply
		if i%2 == 0 {
			tblA.Update(c)
		} else {
			tblB.Update(c)
		}
	}
	if got := wA.Len(hid("v"), nanos(t0.Add(time.Second))); got != 10 {
		t.Errorf("shared window Len = %d, want 10 (evidence split across tables)", got)
	}
	// But 5-tuple flow state stays table-local: each table holds only
	// the flows it updated.
	if a, b := tblA.Len(), tblB.Len(); a != 5 || b != 5 {
		t.Errorf("table flow counts = %d, %d, want 5, 5 (flows must stay local)", a, b)
	}

	// The alert policy sits beside the evidence: an owner's cooldown
	// ledger is one per registry, so the first table's module to say
	// "threshold crossed" arms the cooldown for every table's.
	gA, gB := tblA.Cooldown("mod"), tblB.Cooldown("mod")
	if gA != gB {
		t.Fatal("tables sharing a registry yielded distinct cooldown ledgers for one owner")
	}
	now := t0.Add(20 * time.Millisecond)
	if wA.Len(hid("v"), nanos(now)) < 10 || !gA.Pass("v", now, 10*time.Second) {
		t.Error("first Pass at threshold did not pass")
	}
	if gB.Pass("v", now.Add(time.Millisecond), 10*time.Second) {
		t.Error("second Pass within cooldown passed — cross-table dedup broken")
	}
	// Distinct owners gate independently over the same evidence (the
	// ICMP-flood and Smurf modules read one window).
	other := tblB.Cooldown("other")
	if other == gB || !other.Pass("v", now.Add(time.Millisecond), 10*time.Second) {
		t.Error("distinct owner was silenced by another owner's cooldown")
	}
	other.Release()
	// The ledger observes nothing: no frame pays for it.
	if n := len(reg.snapshot()); n != 1 {
		t.Errorf("observe list holds %d entries, want 1 (the victim window; a ledger must not be observed)", n)
	}
	// An earlier release keeps the armed cooldowns, the last forgets them.
	gA.Release()
	if gB.Pass("v", now.Add(2*time.Millisecond), 10*time.Second) {
		t.Error("one table's release reset a cooldown the other table still holds")
	}
	gB.Release()
	if g := tblA.Cooldown("mod"); g == gB || !g.Pass("v", now.Add(3*time.Millisecond), 10*time.Second) {
		t.Error("fully released ledger kept its armed cooldowns")
	} else {
		g.Release()
	}

	// Cross-table reference counting: one release keeps the shared
	// instance alive, the last one detaches it.
	wA.Release()
	if w := tblB.VictimWindow(mask, 5*time.Second); w != wB {
		t.Error("release of one handle detached a still-referenced tracker")
	} else {
		w.Release()
	}
	wB.Release()
	if w := tblA.VictimWindow(mask, 5*time.Second); w == wB {
		t.Error("fully released tracker was resurrected instead of recreated")
	} else {
		w.Release()
	}

	// The forwarding watch lives by the same rule: evidence from first
	// acquire to last release, whichever table's module holds it.
	fA, fB := tblA.Forwarding(fwdCfg), tblB.Forwarding(fwdCfg)
	fA.Release()
	if f := tblB.Forwarding(fwdCfg); f != fB {
		t.Error("release of one handle detached a still-referenced forwarding watch")
	} else {
		f.Release()
	}
	fB.Release()
	if n := len(reg.snapshot()); n != 0 {
		t.Errorf("%d trackers still observe after their last release", n)
	}
	if f := tblA.Forwarding(fwdCfg); f == fB {
		t.Error("fully released forwarding watch was resurrected instead of recreated")
	} else {
		f.Release()
	}
}

// TestPrivateTrackersByDefault: tables built without Config.Trackers
// keep independent registries (the pre-sharding contract).
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

// TestVictimWindowShardSkew: shard workers read the shared window at
// their own packet's capture time, so a shard that has raced a whole
// episode ahead must neither see a laggard's events in its window nor
// destroy them — the laggard's threshold probe still has to fire.
func TestVictimWindowShardSkew(t *testing.T) {
	w := NewVictimWindow(MaskOf(packet.KindTCPSYN), 5*time.Second)
	mk := func(src packet.NodeID, at time.Time) *packet.Captured {
		return &packet.Captured{Kind: packet.KindTCPSYN, Src: src, Dst: "v", Time: at}
	}
	// The fast shard inserts an event from the next episode, 20s ahead.
	ahead := t0.Add(20 * time.Second)
	w.Observe(obs(mk("fast", ahead)))
	// The laggard then delivers this episode's burst — out of global
	// timestamp order.
	for i := 0; i < 10; i++ {
		w.Observe(obs(mk(packet.NodeID(rune('a'+i)), t0.Add(time.Duration(i)*100*time.Millisecond))))
	}
	lagNow := t0.Add(time.Second)
	if got := w.Len(hid("v"), nanos(lagNow)); got != 10 {
		t.Errorf("laggard window = %d, want 10 (ahead-shard insert destroyed or polluted it)", got)
	}
	if got := w.Len(hid("v"), nanos(ahead)); got != 1 {
		t.Errorf("ahead window = %d, want 1 (stale episode leaked forward)", got)
	}
	if w.Len(hid("v"), nanos(lagNow)) < 10 || !NewCooldown().Pass("v", lagNow, 10*time.Second) {
		t.Error("laggard threshold probe failed after cross-shard skew")
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
	// A fast shard completes a handshake 20s ahead, then a laggard
	// completes two in this episode — out of global timestamp order.
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
