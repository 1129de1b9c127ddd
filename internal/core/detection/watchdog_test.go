package detection

import (
	"strings"
	"testing"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// feedForwarding simulates a 3..1 CTP chain where relay 2 forwards a
// fraction of origin 3's packets: n rounds, dropping when drop(i).
func feedForwarding(t *testing.T, h *harness, mods []module.Module, n int, drop func(int) bool) {
	t.Helper()
	handle := func(c *packet.Captured) { h.deliver(c, mods...) }
	// Root beacon so the watchdog learns node 1 is the sink.
	handle(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	for i := 0; i < n; i++ {
		base := t0.Add(time.Duration(i) * 3 * time.Second)
		// Origin 3 transmits seq i to relay 2.
		handle(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 0, 20, []byte{0x01, uint8(i)}), base, -65))
		if !drop(i) {
			// Relay 2 forwards to root 1 within the timeout.
			handle(mkCap(t, packet.MediumIEEE802154,
				stack.BuildCTPData(2, 1, 3, uint8(i), 1, 10, []byte{0x01, uint8(i)}), base.Add(30*time.Millisecond), -55))
		}
	}
}

func TestSelectiveForwardingDetected(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSelectiveForwarding(nil)
	mod.Activate(h.ctx)
	feedForwarding(t, h, []module.Module{mod}, 40,
		func(i int) bool { return i%2 == 0 }) // 50% drops
	names := h.attackNames()
	if names[attack.SelectiveForwarding] == 0 {
		t.Fatal("selective forwarding not detected")
	}
	for _, a := range h.alerts {
		if len(a.Suspects) != 1 || a.Suspects[0] != "0x0002" {
			t.Errorf("suspect = %v, want relay 0x0002", a.Suspects)
		}
	}
}

func TestHealthyRelayNotFlagged(t *testing.T) {
	h := newHarness(true)
	sel, _ := NewSelectiveForwarding(nil)
	bh, _ := NewBlackhole(nil)
	sel.Activate(h.ctx)
	bh.Activate(h.ctx)
	feedForwarding(t, h, []module.Module{sel, bh}, 40,
		func(int) bool { return false })
	if len(h.alerts) != 0 {
		t.Errorf("healthy relay flagged: %v", h.alerts)
	}
}

func TestBlackholeDetectedAndShared(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewBlackhole(nil)
	mod.Activate(h.ctx)
	feedForwarding(t, h, []module.Module{mod}, 30,
		func(int) bool { return true }) // total drop
	if h.attackNames()[attack.Blackhole] == 0 {
		t.Fatal("blackhole not detected")
	}
	// The collective SuspectBlackhole knowgget names the dropped
	// origins.
	kg, ok := h.kb.Get("K1$" + knowledge.LabelSuspectBlackhole + "@0x0002")
	if !ok {
		t.Fatal("SuspectBlackhole knowgget missing")
	}
	if !kg.Collective || kg.Value != "3" {
		t.Errorf("knowgget = %+v", kg)
	}
}

func TestSelectiveForwardingIgnoresBlackholeGrade(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSelectiveForwarding(nil)
	mod.Activate(h.ctx)
	feedForwarding(t, h, []module.Module{mod}, 30,
		func(int) bool { return true })
	if h.attackNames()[attack.SelectiveForwarding] != 0 {
		t.Error("selective-forwarding module alerted on blackhole-grade drops")
	}
}

func TestReplicationStaticDetectsRSSIJumps(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewReplicationStatic(nil)
	mod.Activate(h.ctx)
	// Background identities keep the jumpy-fraction guard low.
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(4, 1, 4, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at, -62), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(5, 1, 5, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at.Add(100*time.Millisecond), -58), mod)
		// Identity 3 alternates between two positions (orig at -60,
		// replica at -75).
		rssi := -60.0
		if i%2 == 1 {
			rssi = -75
		}
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(3, 1, 3, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at.Add(200*time.Millisecond), rssi), mod)
	}
	names := h.attackNames()
	if names[attack.Replication] == 0 {
		t.Fatal("replication not detected")
	}
	for _, a := range h.alerts {
		if a.Suspects[0] != "0x0003" {
			t.Errorf("suspect = %v", a.Suspects)
		}
	}
}

func TestReplicationStaticSilentUnderMobility(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewReplicationStatic(nil)
	mod.Activate(h.ctx)
	// Every identity jumps (network-wide motion): the baseline is
	// unreliable, so the static technique must stay silent.
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		for id := uint16(3); id <= 6; id++ {
			rssi := -55.0 - float64((i+int(id))%2)*20
			h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(id, 1, id, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at, rssi), mod)
		}
	}
	if len(h.alerts) != 0 {
		t.Errorf("static technique alerted under mobility: %d alerts", len(h.alerts))
	}
}

func TestReplicationMobileDetectsSeqConflict(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewReplicationMobile(nil)
	mod.Activate(h.ctx)
	// Identity 3: original counts 10,11,12...; replica counts
	// 100,101,... — interleaved.
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 1, 3, uint8(10+i), 0, 20, []byte{0x01, uint8(10 + i)}), at, -60), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 1, 3, uint8(100+i), 0, 20, []byte{0x01, uint8(100 + i)}), at.Add(500*time.Millisecond), -70), mod)
	}
	if h.attackNames()[attack.Replication] == 0 {
		t.Fatal("replication (mobile) not detected")
	}
}

func TestReplicationMobileIgnoresForwardedCounters(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewReplicationMobile(nil)
	mod.Activate(h.ctx)
	// Relay 2 forwards frames from origins 3 and 4 with their own
	// counters — interleaved under transmitter 2, but forwarded
	// counters must not count as flips.
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(2, 1, 3, uint8(10+i), 1, 10, []byte{0x01, uint8(10 + i)}), at, -60), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(2, 1, 4, uint8(200+i), 1, 10, []byte{0x01, uint8(200 + i)}), at.Add(300*time.Millisecond), -60), mod)
	}
	if len(h.alerts) != 0 {
		t.Errorf("relay flagged as replica: %v", h.alerts)
	}
}

func TestSybilDetectsColocatedNewIdentities(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSybil(nil)
	mod.Activate(h.ctx)
	// Warmup: legitimate identities at distinct RSSI.
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(2, 1, 2, uint8(i), 0, 20, nil), at, -55), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(3, 1, 3, uint8(i), 0, 20, nil), at.Add(100*time.Millisecond), -65), mod)
	}
	// Attack: five fresh identities, one radio (same RSSI).
	for f := 0; f < 3; f++ {
		at := t0.Add(time.Duration(40+f) * time.Second)
		for id := uint16(0x500); id < 0x505; id++ {
			h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(id, 1, id, uint8(f), 0, 20, nil), at.Add(time.Duration(id%16)*50*time.Millisecond), -60.2), mod)
		}
	}
	if h.attackNames()[attack.Sybil] == 0 {
		t.Fatal("sybil not detected")
	}
	if len(h.alerts[0].Suspects) < 4 {
		t.Errorf("suspects = %v", h.alerts[0].Suspects)
	}
}

func TestSybilIgnoresEstablishedIdentities(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSybil(nil)
	mod.Activate(h.ctx)
	// Six equidistant legitimate nodes present from the start: no
	// alert even though their RSSI clusters.
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		for id := uint16(2); id < 8; id++ {
			h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(id, 1, id, uint8(i), 0, 20, nil), at.Add(time.Duration(id)*20*time.Millisecond), -60), mod)
		}
	}
	if len(h.alerts) != 0 {
		t.Errorf("established identities flagged: %v", h.alerts)
	}
}

func TestSinkholeDetectsRootBandClaim(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSinkhole(nil)
	mod.Activate(h.ctx)
	// Learning: root (ETX 0) and normal advertisers.
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, uint8(i)), at, -50), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(2, 1, 10, uint8(i)), at.Add(time.Second), -55), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(3, 2, 20, uint8(i)), at.Add(2*time.Second), -60), mod)
	}
	// After learning, node 3 suddenly claims cost 1.
	h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(3, 1, 1, 99), t0.Add(2*time.Minute), -60), mod)
	names := h.attackNames()
	if names[attack.Sinkhole] != 1 {
		t.Fatalf("sinkhole alerts = %v", names)
	}
	if h.alerts[0].Suspects[0] != "0x0003" {
		t.Errorf("suspect = %v", h.alerts[0].Suspects)
	}
	// The legitimate root keeps advertising 0 without alerts.
	h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 100), t0.Add(3*time.Minute), -50), mod)
	if len(h.alerts) != 1 {
		t.Error("root flagged")
	}
}

func TestSinkholeDetectsBaselineDrop(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSinkhole(nil)
	mod.Activate(h.ctx)
	for i := 0; i < 6; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(3, 2, 30, uint8(i)), at, -60), mod)
	}
	h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(3, 2, 8, 99), t0.Add(2*time.Minute), -60), mod)
	if h.attackNames()[attack.Sinkhole] != 1 {
		t.Fatalf("baseline-drop sinkhole not detected: %v", h.alerts)
	}
}

func TestWormholeCorrelation(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewWormhole(map[string]string{"minEmergent": "3"})
	h.activate(mod)
	// A peer Kalis node reported a blackhole at 0x0005 dropping
	// origins 7 and 8.
	h.kb.AcceptGossip("K2", knowledge.Knowgget{
		Label: knowledge.LabelSuspectBlackhole, Value: "7,8", Creator: "K2", Entity: "0x0005", Version: 1,
	})
	// Locally, node 0x0009 emits forwarded traffic for origin 7 that
	// it never received.
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(9, 1, 7, uint8(i), 2, 10, []byte{0x01, uint8(i)}), at, -60), mod)
	}
	names := h.attackNames()
	if names[attack.Wormhole] != 1 {
		t.Fatalf("wormhole alerts = %v", names)
	}
	s := h.alerts[0].Suspects
	if len(s) != 2 || s[0] != "0x0005" || s[1] != "0x0009" {
		t.Errorf("suspects = %v", s)
	}
	// The emergent source was shared for the peer to correlate too.
	if _, ok := h.kb.Get("K1$" + knowledge.LabelEmergentSource + "@0x0009"); !ok {
		t.Error("EmergentSource knowgget not published")
	}
}

func TestWormholeNoCorrelationWithoutOverlap(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewWormhole(map[string]string{"minEmergent": "3"})
	h.activate(mod)
	h.kb.AcceptGossip("K2", knowledge.Knowgget{
		Label: knowledge.LabelSuspectBlackhole, Value: "7", Creator: "K2", Entity: "0x0005", Version: 1,
	})
	for i := 0; i < 4; i++ {
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(9, 1, 12, uint8(i), 2, 10, nil), t0.Add(time.Duration(i)*time.Second), -60), mod)
	}
	if len(h.alerts) != 0 {
		t.Errorf("wormhole alerted without origin overlap: %v", h.alerts)
	}
}

func TestWormholeIgnoresNormalForwarding(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewWormhole(map[string]string{"minEmergent": "3"})
	h.activate(mod)
	for i := 0; i < 10; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		// Hand-off to 2, then 2 forwards: not emergent.
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 0, 20, nil), at, -65), mod)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(2, 1, 3, uint8(i), 1, 10, nil), at.Add(30*time.Millisecond), -55), mod)
	}
	if _, ok := h.kb.Get("K1$" + knowledge.LabelEmergentSource + "@0x0002"); ok {
		t.Error("normal relay published as emergent source")
	}
}

func TestDataAlterationDetected(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewDataAlteration(nil)
	h.activate(mod)
	// Consistent frame: fine.
	h.deliver(mkCap(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 3, 5, 1, 10, []byte{0x01, 5}), t0, -60), mod)
	if len(h.alerts) != 0 {
		t.Fatal("consistent payload flagged")
	}
	// Tampered frame: payload counter disagrees with header.
	h.deliver(mkCap(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 3, 6, 1, 10, []byte{0x01, 99}), t0.Add(time.Second), -60), mod)
	if h.attackNames()[attack.DataAlteration] != 1 {
		t.Fatalf("alteration not detected: %v", h.alerts)
	}
	if h.alerts[0].Suspects[0] != "0x0002" {
		t.Errorf("suspect = %v", h.alerts[0].Suspects)
	}
}

// TestForwardingModulesShareOneWatch: the two verdicts read one
// evidence tracker when configured alike, and a differently configured
// instance gets its own.
func TestForwardingModulesShareOneWatch(t *testing.T) {
	h := newHarness(true)
	sel, _ := NewSelectiveForwarding(nil)
	bh, _ := NewBlackhole(nil)
	odd, _ := NewBlackhole(map[string]string{"timeout": "1s"})
	for _, m := range []module.Module{sel, bh, odd} {
		m.Activate(h.ctx)
	}
	shared := h.table.Forwarding(bh.(*Blackhole).cfg)
	defer shared.Release()
	if sel.(*SelectiveForwarding).watch != shared || bh.(*Blackhole).watch != shared {
		t.Error("alike-configured forwarding modules hold distinct watches")
	}
	if odd.(*Blackhole).watch == shared {
		t.Error("differently configured module shares the watch")
	}
	// Evidence lives from first acquire to last release.
	sel.Deactivate()
	if w := h.table.Forwarding(bh.(*Blackhole).cfg); w != shared {
		t.Error("one module's deactivation dropped evidence the other still reads")
	} else {
		w.Release()
	}
}

// TestBlackholePublishesOnChange: SuspectBlackhole is put when the
// relay's dropped-origin set grew, not once per frame — a frame that
// brings no new evidence costs the module nothing.
func TestBlackholePublishesOnChange(t *testing.T) {
	h := newHarness(true)
	var puts []string
	h.kb.Subscribe(knowledge.LabelSuspectBlackhole, func(kg knowledge.Knowgget) { puts = append(puts, kg.Value) })
	mod, _ := NewBlackhole(nil)
	h.activate(mod)
	feedForwarding(t, h, []module.Module{mod}, 30, func(int) bool { return true })
	if len(puts) != 1 || puts[0] != "3" {
		t.Fatalf("puts = %q, want one naming origin 3", puts)
	}
	// Inside the alert cooldown, with the relay still blackhole-grade.
	last := t0.Add(29 * 3 * time.Second)
	idle := mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(4, 2, 30, 1), last, -60)
	if n := testing.AllocsPerRun(50, func() { mod.HandlePacket(idle) }); n != 0 {
		t.Errorf("frame without new evidence: %v allocs, want 0", n)
	}
	// A second origin's frames vanish at the relay: the set grew.
	for i := 0; i < 2; i++ {
		at := last.Add(time.Duration(i+1) * time.Second)
		h.deliver(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(4, 2, 4, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at, -65), mod)
	}
	if len(puts) != 2 || puts[1] != "3,4" {
		t.Errorf("puts = %q, want a second one naming origins 3,4", puts)
	}
}

// TestForwardingRefusesMinSamplesBelowOne: a relay with no outcome in
// the window has no drop ratio, so both forwarding modules refuse a
// minSamples that would ask for one.
func TestForwardingRefusesMinSamplesBelowOne(t *testing.T) {
	for name, mk := range map[string]module.Factory{SelectiveForwardingName: NewSelectiveForwarding, BlackholeName: NewBlackhole} {
		for _, v := range []string{"0", "-3"} {
			if mod, err := mk(map[string]string{"minSamples": v}); err == nil || mod != nil || !strings.HasPrefix(err.Error(), "minSamples: ") {
				t.Errorf("%s: minSamples=%s gave (%v, %v), want no module and a minSamples error", name, v, mod, err)
			}
		}
		if _, err := mk(map[string]string{"minSamples": "1"}); err != nil {
			t.Errorf("%s: minSamples=1 refused: %v", name, err)
		}
	}
}
