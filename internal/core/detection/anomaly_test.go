package detection

import (
	"net/netip"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

func TestAnomalyOptIn(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, err := NewTrafficAnomaly(nil)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Required(kb) {
		t.Error("anomaly module required without opt-in")
	}
	kb.PutBool("AnomalyDetection", true)
	if !mod.Required(kb) {
		t.Error("anomaly module not required after opt-in")
	}
}

func TestAnomalyDetectsRateSpike(t *testing.T) {
	h := newHarness(true)
	mod, err := NewTrafficAnomaly(map[string]string{"interval": "5s", "minWindows": "4", "zThreshold": "4"})
	if err != nil {
		t.Fatal(err)
	}
	mod.Activate(h.ctx)
	src := netip.MustParseAddr("192.168.1.20")
	dst := netip.MustParseAddr("192.168.1.10")
	at := t0
	// Baseline: ~2 UDP datagrams per 5 s window for 8 windows.
	for w := 0; w < 8; w++ {
		for i := 0; i < 2; i++ {
			raw := stack.BuildUDP(src, dst, 1, 2, uint16(w*10+i), []byte("x"))
			mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, at, -60))
			at = at.Add(2 * time.Second)
		}
		at = t0.Add(time.Duration(w+1) * 5 * time.Second)
	}
	if len(h.alerts) != 0 {
		t.Fatalf("alerts during baseline: %v", h.alerts)
	}
	// Spike: 60 datagrams in one window — an unknown attack shape.
	spikeStart := at
	for i := 0; i < 60; i++ {
		raw := stack.BuildUDP(src, dst, 1, 2, uint16(1000+i), []byte("x"))
		mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, spikeStart.Add(time.Duration(i)*80*time.Millisecond), -60))
	}
	// Next window closes the spiked one.
	raw := stack.BuildUDP(src, dst, 1, 2, 2000, []byte("x"))
	mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, spikeStart.Add(6*time.Second), -60))

	if n := h.attackNames()[AnomalyAttack]; n != 1 {
		t.Fatalf("anomaly alerts = %d, want 1 (%v)", n, h.alerts)
	}
	if h.alerts[0].Victim != "192.168.1.10" {
		t.Errorf("victim = %s", h.alerts[0].Victim)
	}
	if h.alerts[0].Confidence >= 0.7 {
		t.Error("anomaly confidence should be low (it cannot name the attack)")
	}
}

func TestAnomalyQuietAfterSpikeExcluded(t *testing.T) {
	// Attack windows must not poison the baseline: a second identical
	// spike still alerts.
	h := newHarness(true)
	mod, _ := NewTrafficAnomaly(map[string]string{"interval": "5s", "minWindows": "4", "cooldown": "1s"})
	mod.Activate(h.ctx)
	src := netip.MustParseAddr("192.168.1.20")
	dst := netip.MustParseAddr("192.168.1.10")
	seq := uint16(0)
	emit := func(at time.Time, n int) {
		for i := 0; i < n; i++ {
			seq++
			raw := stack.BuildUDP(src, dst, 1, 2, seq, []byte("x"))
			mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, at.Add(time.Duration(i)*50*time.Millisecond), -60))
		}
	}
	for w := 0; w < 6; w++ {
		emit(t0.Add(time.Duration(w)*5*time.Second), 2)
	}
	emit(t0.Add(30*time.Second), 60) // spike 1
	for w := 7; w < 9; w++ {
		emit(t0.Add(time.Duration(w)*5*time.Second), 2)
	}
	emit(t0.Add(45*time.Second), 60) // spike 2
	emit(t0.Add(51*time.Second), 1)  // close the window
	if n := h.attackNames()[AnomalyAttack]; n != 2 {
		t.Errorf("anomaly alerts = %d, want 2 (%v)", n, h.alerts)
	}
}

func TestAnomalyParamErrors(t *testing.T) {
	for _, params := range []map[string]string{
		{"interval": "x"}, {"zThreshold": "x"}, {"minWindows": "x"}, {"cooldown": "x"},
	} {
		if _, err := NewTrafficAnomaly(params); err == nil {
			t.Errorf("bad params accepted: %v", params)
		}
	}
}

// TestAnomalySilenceJump: after a long silence the counting window
// restarts on the grid Captured.Time.Truncate lays out — relative to
// year 1, so a 7 s grid is not the Unix epoch's.
func TestAnomalySilenceJump(t *testing.T) {
	h := newHarness(true)
	mod, err := NewTrafficAnomaly(map[string]string{"interval": "7s"})
	if err != nil {
		t.Fatal(err)
	}
	d := mod.(*TrafficAnomaly)
	d.Activate(h.ctx)
	raw := stack.BuildUDP(netip.MustParseAddr("192.168.1.20"), netip.MustParseAddr("192.168.1.10"), 1, 2, 1, []byte("x"))
	d.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0, -60))
	late := mkCap(t, packet.MediumWiFi, raw, t0.Add(1000*time.Second+123*time.Millisecond), -60)
	d.HandlePacket(late)
	if want := late.Time.Truncate(7 * time.Second).UnixNano(); d.windowStart != want {
		t.Errorf("window after the silence starts at %d, want %d (Time.Truncate)", d.windowStart, want)
	}
}
