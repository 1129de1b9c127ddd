package detection

import (
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

var t0 = time.Unix(1500000000, 0).UTC()

type harness struct {
	kb     *knowledge.Base
	table  *flow.Table
	alerts []module.Alert
	ctx    *module.Context
}

func newHarness(knowledgeDriven bool) *harness {
	h := &harness{kb: knowledge.NewBase("K1"), table: flow.NewTable(flow.Config{})}
	h.ctx = &module.Context{
		KB:              h.kb,
		Flows:           h.table,
		Emit:            func(a module.Alert) { h.alerts = append(h.alerts, a) },
		KnowledgeDriven: knowledgeDriven,
	}
	return h
}

// activate stands in for the manager: it activates mod and, if the
// module listens to knowledge, hands it every change of its labels.
func (h *harness) activate(mod module.Module) {
	mod.Activate(h.ctx)
	if l, ok := mod.(module.KnowledgeHandler); ok {
		for _, label := range l.KnowledgeLabels() {
			h.kb.Subscribe(label, l.HandleKnowledge)
		}
	}
}

// deliver hands one capture over the way the manager does: the flow
// table folds it in once, then every module sees it.
func (h *harness) deliver(c *packet.Captured, mods ...module.Module) {
	h.table.Update(c)
	for _, m := range mods {
		m.HandlePacket(c)
	}
}

func (h *harness) attackNames() map[string]int {
	out := map[string]int{}
	for _, a := range h.alerts {
		out[a.Attack]++
	}
	return out
}

func mkCap(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

var (
	victimIP = netip.MustParseAddr("192.168.1.10")
	spoofA   = netip.MustParseAddr("192.168.1.21")
	spoofB   = netip.MustParseAddr("192.168.1.22")
)

// feedFlood sends n echo replies to the victim, alternating spoofed
// sources, all at the given RSSI (single physical transmitter).
func feedFlood(t *testing.T, h *harness, mod module.Module, n int, rssi float64) {
	for i := 0; i < n; i++ {
		src := spoofA
		if i%2 == 1 {
			src = spoofB
		}
		raw := stack.BuildICMPEcho(src, victimIP, icmp.TypeEchoReply, 1, uint16(i), 64)
		h.deliver(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*100*time.Millisecond), rssi), mod)
	}
}

func TestICMPFloodDetects(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewICMPFlood(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	feedFlood(t, h, mod, 30, -58)
	if n := h.attackNames()[attack.ICMPFlood]; n != 1 {
		t.Fatalf("flood alerts = %d, want 1 (suppression)", n)
	}
	a := h.alerts[0]
	if a.Victim != "192.168.1.10" {
		t.Errorf("victim = %s", a.Victim)
	}
}

func TestICMPFloodFingerprintsSuspect(t *testing.T) {
	h := newHarness(true)
	// Historical fingerprint: the real attacker node 192.168.1.66 has
	// EWMA RSSI -58; spoofed identities live elsewhere.
	h.kb.PutEntity(knowledge.LabelSignalStrength, "192.168.1.66", "-58.2")
	h.kb.PutEntity(knowledge.LabelSignalStrength, "192.168.1.21", "-70.0")
	h.kb.PutEntity(knowledge.LabelSignalStrength, "192.168.1.22", "-75.0")
	mod, _ := NewICMPFlood(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	feedFlood(t, h, mod, 30, -58)
	if len(h.alerts) != 1 {
		t.Fatalf("alerts = %d", len(h.alerts))
	}
	s := h.alerts[0].Suspects
	if len(s) != 1 || s[0] != "192.168.1.66" {
		t.Errorf("suspects = %v, want the fingerprint match", s)
	}
}

func TestICMPFloodMultihopRejectsMultiSource(t *testing.T) {
	h := newHarness(true)
	h.kb.PutBool(knowledge.LabelMultihop, true)
	mod, _ := NewICMPFlood(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	// Replies from three distinct RSSI clusters: a smurf, not a flood.
	for i := 0; i < 30; i++ {
		rssi := []float64{-50, -60, -70}[i%3]
		raw := stack.BuildICMPEcho(spoofA, victimIP, icmp.TypeEchoReply, 1, uint16(i), 64)
		h.deliver(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*100*time.Millisecond), rssi), mod)
	}
	if len(h.alerts) != 0 {
		t.Errorf("knowledge-driven flood module alerted on multi-source replies: %v", h.alerts)
	}
}

func TestSmurfRequiresMultipleSources(t *testing.T) {
	h := newHarness(true)
	h.kb.PutBool(knowledge.LabelMultihop, true)
	mod, _ := NewSmurf(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	// Single-source flood: smurf module must stay silent.
	feedFlood(t, h, mod, 30, -58)
	if len(h.alerts) != 0 {
		t.Fatalf("smurf alerted on single-source flood: %v", h.alerts)
	}
	// Multi-source amplification: smurf.
	for i := 0; i < 30; i++ {
		rssi := []float64{-50, -60, -70}[i%3]
		raw := stack.BuildICMPEcho(spoofA, victimIP, icmp.TypeEchoReply, 1, uint16(100+i), 64)
		h.deliver(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(100+i)*100*time.Millisecond), rssi), mod)
	}
	if n := h.attackNames()[attack.Smurf]; n != 1 {
		t.Errorf("smurf alerts = %d, want 1", n)
	}
}

func TestNaiveModeAmbiguity(t *testing.T) {
	// Without a Knowledge Base (traditional IDS), both modules alert
	// on the same symptom — the paper's disambiguation failure.
	h := newHarness(false)
	flood, _ := NewICMPFlood(map[string]string{"detectionThresh": "20"})
	smurf, _ := NewSmurf(map[string]string{"detectionThresh": "20"})
	flood.Activate(h.ctx)
	smurf.Activate(h.ctx)
	for i := 0; i < 30; i++ {
		raw := stack.BuildICMPEcho(spoofA, victimIP, icmp.TypeEchoReply, 1, uint16(i), 64)
		c := mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*100*time.Millisecond), -58)
		h.deliver(c, flood, smurf)
	}
	names := h.attackNames()
	if names[attack.ICMPFlood] != 1 || names[attack.Smurf] != 1 {
		t.Errorf("naive mode should produce both alerts: %v", names)
	}
}

func TestSYNFloodDetectsHalfOpen(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSYNFlood(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	for i := 0; i < 30; i++ {
		raw := stack.BuildTCP(spoofA, victimIP, uint16(10000+i), 443, tcp.FlagSYN, uint32(i), 0, uint16(i), nil)
		h.deliver(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*100*time.Millisecond), -58), mod)
	}
	if n := h.attackNames()[attack.SYNFlood]; n != 1 {
		t.Errorf("syn-flood alerts = %d, want 1", n)
	}
}

func TestSYNFloodIgnoresCompletedHandshakes(t *testing.T) {
	h := newHarness(true)
	mod, _ := NewSYNFlood(map[string]string{"detectionThresh": "20"})
	mod.Activate(h.ctx)
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * 100 * time.Millisecond)
		syn := stack.BuildTCP(spoofA, victimIP, uint16(10000+i), 443, tcp.FlagSYN, uint32(i), 0, uint16(3*i), nil)
		h.deliver(mkCap(t, packet.MediumWiFi, syn, at, -58), mod)
		synack := stack.BuildTCP(victimIP, spoofA, 443, uint16(10000+i), tcp.FlagSYN|tcp.FlagACK, 99, uint32(i)+1, uint16(3*i+1), nil)
		h.deliver(mkCap(t, packet.MediumWiFi, synack, at.Add(10*time.Millisecond), -55), mod)
		// The initiator completes the handshake — a real client, not a
		// spoofed flood source.
		ack := stack.BuildTCP(spoofA, victimIP, uint16(10000+i), 443, tcp.FlagACK, uint32(i)+1, 100, uint16(3*i+2), nil)
		h.deliver(mkCap(t, packet.MediumWiFi, ack, at.Add(20*time.Millisecond), -58), mod)
	}
	if len(h.alerts) != 0 {
		t.Errorf("legitimate burst flagged: %v", h.alerts)
	}
}

func TestRequiredPredicates(t *testing.T) {
	kb := knowledge.NewBase("K1")
	flood, _ := NewICMPFlood(nil)
	smurf, _ := NewSmurf(nil)
	sel, _ := NewSelectiveForwarding(nil)
	repS, _ := NewReplicationStatic(nil)
	repM, _ := NewReplicationMobile(nil)
	syb, _ := NewSybil(nil)
	alt, _ := NewDataAlteration(nil)

	for name, mod := range map[string]module.Module{
		"flood": flood, "smurf": smurf, "selfwd": sel,
		"repStatic": repS, "repMobile": repM, "sybil": syb,
	} {
		if mod.Required(kb) {
			t.Errorf("%s required on empty KB", name)
		}
	}

	kb.Put(knowledge.LabelMediums+".wifi", "true")
	if !flood.Required(kb) {
		t.Error("flood not required with wifi")
	}
	if smurf.Required(kb) {
		t.Error("smurf required on (presumed) single-hop")
	}
	kb.PutBool(knowledge.LabelMultihop, true)
	if !smurf.Required(kb) {
		t.Error("smurf not required on multi-hop wifi")
	}

	kb.Put(knowledge.LabelMediums+".ieee802.15.4", "true")
	if !sel.Required(kb) {
		t.Error("selective forwarding not required on multi-hop 802.15.4")
	}
	if repS.Required(kb) || repM.Required(kb) {
		t.Error("replication modules required with unknown mobility")
	}
	kb.PutBool(knowledge.LabelMobility, false)
	if !repS.Required(kb) || repM.Required(kb) {
		t.Error("static replication selection wrong")
	}
	kb.PutBool(knowledge.LabelMobility, true)
	if repS.Required(kb) || !repM.Required(kb) {
		t.Error("mobile replication selection wrong")
	}
	if !syb.Required(kb) {
		t.Error("sybil not required on 802.15.4")
	}
	if !alt.Required(kb) {
		t.Error("alteration not required with unknown encryption")
	}
	kb.PutBool(knowledge.LabelEncrypted, true)
	if alt.Required(kb) {
		t.Error("alteration required despite encryption")
	}
}

func TestClusterRSSI(t *testing.T) {
	if n := clusterRSSI(nil, 2.5); n != 0 {
		t.Errorf("empty = %d", n)
	}
	if n := clusterRSSI([]float64{-60, -60.5, -59.8}, 2.5); n != 1 {
		t.Errorf("tight = %d, want 1", n)
	}
	if n := clusterRSSI([]float64{-50, -60, -70, -60.4}, 2.5); n != 3 {
		t.Errorf("spread = %d, want 3", n)
	}
}

// TestFingerprintMatchAllocs: forming a knowledge-driven ICMP-flood
// alert reads the SignalStrength fingerprints into scratch the module
// keeps, so naming the suspect allocates the same with 8 fingerprints
// as with 64, and nothing but the slice it returns.
func TestFingerprintMatchAllocs(t *testing.T) {
	allocs := func(fingerprints int) float64 {
		h := newHarness(true)
		h.kb.PutEntity(knowledge.LabelSignalStrength, "192.168.1.66", "-58.2")
		for i := 1; i < fingerprints; i++ {
			h.kb.PutEntity(knowledge.LabelSignalStrength, netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}).String(), "-80.0")
		}
		mod, _ := NewICMPFlood(map[string]string{"detectionThresh": "20"})
		mod.Activate(h.ctx)
		feedFlood(t, h, mod, 30, -58)
		if len(h.alerts) != 1 || len(h.alerts[0].Suspects) != 1 || h.alerts[0].Suspects[0] != "192.168.1.66" {
			t.Fatalf("%d fingerprints: alerts %+v, want one naming 192.168.1.66", fingerprints, h.alerts)
		}
		d := mod.(*ICMPFlood)
		last := mkCap(t, packet.MediumWiFi, stack.BuildICMPEcho(spoofA, victimIP, icmp.TypeEchoReply, 1, 30, 64), t0.Add(3*time.Second), -58)
		d.ev.load(d.win, last)
		return testing.AllocsPerRun(20, func() {
			if s := d.suspects(); len(s) != 1 || s[0] != "192.168.1.66" {
				t.Fatalf("suspects = %v, want 192.168.1.66", s)
			}
		})
	}
	few, many := allocs(8), allocs(64)
	if few != many || few > 1 {
		t.Errorf("naming the suspect allocates %.0f with 8 fingerprints, %.0f with 64; want the same, and at most the returned slice", few, many)
	}
}

// TestFloodAlertAllocs: each rate detector forms an alert from scratch
// it reuses, so a raised alert allocates the same with 25 events in the
// victim window as with 200 — its Suspects slice and Details string.
// Each run steps the capture clock past the cooldown and hands the
// module a frame of the window's victim, which raises the next alert.
func TestFloodAlertAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		new   func(map[string]string) (module.Module, error)
		frame func(i int) []byte
		rssi  func(i int) float64
	}{
		{ICMPFloodName, NewICMPFlood, icmpFrame, func(int) float64 { return -58 }},
		{SYNFloodName, NewSYNFlood, synFrame, func(int) float64 { return -58 }},
		{SmurfName, NewSmurf, icmpFrame, func(i int) float64 { return []float64{-50, -60, -70}[i%3] }},
	} {
		allocs := func(events int) float64 {
			h := newHarness(true)
			h.kb.PutBool(knowledge.LabelMultihop, true)
			h.kb.PutEntity(knowledge.LabelSignalStrength, "192.168.1.66", "-58.2")
			mod, _ := tc.new(map[string]string{"detectionThresh": "20", "window": "1000h", "cooldown": "1s"})
			mod.Activate(h.ctx)
			var c *packet.Captured
			for i := 0; i < events; i++ {
				c = mkCap(t, packet.MediumWiFi, tc.frame(i), t0.Add(time.Duration(i)*time.Millisecond), tc.rssi(i))
				h.deliver(c, mod)
			}
			raised := 0
			var last module.Alert
			h.ctx.Emit = func(a module.Alert) { raised++; last = a }
			n := testing.AllocsPerRun(50, func() {
				c.Time = c.Time.Add(2 * time.Second)
				mod.HandlePacket(c)
			})
			if raised != 51 {
				t.Fatalf("%s, %d events: %d alerts in 51 runs, want one a run", tc.name, events, raised)
			}
			if want := strconv.Itoa(events) + " "; !strings.HasPrefix(last.Details, want) {
				t.Fatalf("%s: Details %q, want %d events", tc.name, last.Details, events)
			}
			return n
		}
		few, many := allocs(25), allocs(200)
		if few != many || few > 2 {
			t.Errorf("%s: an alert allocates %.0f with 25 events in the window, %.0f with 200; want the same, and at most its Suspects and Details", tc.name, few, many)
		}
		t.Logf("%s: %.0f allocations an alert", tc.name, few)
	}
}

// icmpFrame is the i-th echo reply to the victim, each from its own
// spoofed source.
func icmpFrame(i int) []byte {
	return stack.BuildICMPEcho(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), victimIP, icmp.TypeEchoReply, 1, uint16(i), 64)
}

// synFrame is the i-th SYN to the victim, each from its own spoofed
// source.
func synFrame(i int) []byte {
	return stack.BuildTCP(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), victimIP, uint16(10000+i), 443, tcp.FlagSYN, uint32(i), 0, uint16(i), nil)
}
