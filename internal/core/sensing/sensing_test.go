package sensing

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
)

var t0 = time.Unix(1500000000, 0).UTC()

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

func newCtx(kb *knowledge.Base) *module.Context {
	return &module.Context{KB: kb, Emit: func(module.Alert) {}, KnowledgeDriven: true}
}

func TestTopologyDetectsMultihopFromTHL(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, err := NewTopology(nil)
	if err != nil {
		t.Fatal(err)
	}
	mod.Activate(newCtx(kb))

	// Origin transmission (THL 0, src == transmitter): no evidence.
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(3, 2, 3, 1, 0, 20, nil), t0, -60))
	if _, ok := kb.Bool(knowledge.LabelMultihop); ok {
		t.Fatal("multihop declared too early")
	}
	// Forwarded frame (THL 1, transmitter != origin): multi-hop.
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPData(2, 1, 3, 1, 1, 20, nil), t0.Add(time.Second), -61))
	if v, ok := kb.Bool(knowledge.LabelMultihop); !ok || !v {
		t.Fatal("multihop not declared")
	}
}

func TestTopologyDeclaresSingleHop(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTopology(map[string]string{"singleHopAfter": "10"})
	mod.Activate(newCtx(kb))
	src := netip.MustParseAddr("192.168.1.5")
	dst := netip.MustParseAddr("192.168.1.10")
	for i := 0; i < 10; i++ {
		raw := stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, uint16(i), 64)
		mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*time.Second), -55))
	}
	if v, ok := kb.Bool(knowledge.LabelMultihop); !ok || v {
		t.Fatalf("single-hop not declared: v=%v ok=%v", v, ok)
	}
	if v, _ := kb.Value(knowledge.LabelMediums + ".wifi"); v != "true" {
		t.Error("wifi medium knowgget missing")
	}
}

func TestTopologyDetectsRPLAndMesh(t *testing.T) {
	for name, raw := range map[string][]byte{
		"rpl":  stack.BuildRPLDIO(3, 1, 512, 1),
		"mesh": stack.BuildSixLowPANData(4, 2, 9, 1, 3, 5, []byte{1}),
	} {
		kb := knowledge.NewBase("K1")
		mod, _ := NewTopology(nil)
		mod.Activate(newCtx(kb))
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0, -60))
		if v, ok := kb.Bool(knowledge.LabelMultihop); !ok || !v {
			t.Errorf("%s: multihop not declared", name)
		}
	}
}

func TestTopologyCountsNodesAndEdges(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTopology(nil)
	mod.Activate(newCtx(kb))
	for i := 2; i <= 4; i++ {
		raw := stack.BuildCTPData(uint16(i), 1, uint16(i), 1, 0, 20, nil)
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0, -60))
	}
	if n, ok := kb.Int(knowledge.LabelMonitoredNodes); !ok || n != 4 { // 3 senders + dst 1
		t.Errorf("MonitoredNodes = %d", n)
	}
	// The links stay out of the Base: nothing reads them, and a spoofed
	// flood would make one knowgget per spoofed transmitter.
	if n := kb.Len(); n != 2 { // Mediums.ieee802154, MonitoredNodes
		t.Errorf("the Base holds %d knowggets, want 2: %v", n, kb.QueryPrefix("K1$"))
	}
}

func TestTopologyNotRequiredWhenStatic(t *testing.T) {
	kb := knowledge.NewBase("K1")
	kb.PutStatic(knowledge.LabelMultihop, "", "true")
	mod, _ := NewTopology(nil)
	if mod.Required(kb) {
		t.Error("topology discovery should not be required with static knowledge")
	}
}

func TestTrafficStatsPublishesRates(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTrafficStats(map[string]string{"interval": "5s"})
	mod.Activate(newCtx(kb))

	src := netip.MustParseAddr("192.168.1.66")
	victim := netip.MustParseAddr("192.168.1.10")
	// 10 echo replies in the first 5 s window, then one packet in the
	// next window to trigger publication.
	for i := 0; i < 10; i++ {
		raw := stack.BuildICMPEcho(src, victim, icmp.TypeEchoReply, 1, uint16(i), 64)
		mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*400*time.Millisecond), -60))
	}
	raw := stack.BuildICMPEcho(src, victim, icmp.TypeEchoRequest, 1, 99, 64)
	mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0.Add(6*time.Second), -60))

	v, ok := kb.Value(knowledge.LabelTrafficFrequency + ".ICMPEchoReply")
	if !ok {
		t.Fatal("global rate missing")
	}
	if f, _ := strconv.ParseFloat(v, 64); f != 2.0 {
		t.Errorf("rate = %s, want 2.000", v)
	}
	if got := kb.QueryPrefix("K1$" + knowledge.LabelTrafficFrequency + ".ICMPEchoReply@"); len(got) != 0 {
		t.Errorf("per-destination rates published: %v", got)
	}
}

func TestTrafficStatsZeroesQuietKinds(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTrafficStats(map[string]string{"interval": "5s"})
	mod.Activate(newCtx(kb))
	src := netip.MustParseAddr("192.168.1.66")
	victim := netip.MustParseAddr("192.168.1.10")
	for i := 0; i < 5; i++ {
		raw := stack.BuildICMPEcho(src, victim, icmp.TypeEchoReply, 1, uint16(i), 64)
		mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0.Add(time.Duration(i)*time.Second), -60))
	}
	// Two quiet windows later, a different-kind packet arrives.
	raw := stack.BuildUDP(src, victim, 1, 2, 1, nil)
	mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0.Add(16*time.Second), -60))

	v, ok := kb.Value(knowledge.LabelTrafficFrequency + ".ICMPEchoReply")
	if !ok {
		t.Fatal("rate missing")
	}
	if f, _ := strconv.ParseFloat(v, 64); f != 0 {
		t.Errorf("stale rate = %s, want 0", v)
	}
}

// TestTrafficStatsPublishesTenfoldMoves: a kind's rate is put when a
// window's count is at least ten times or at most a tenth of the count
// last published, or goes to or from zero, and at no other window.
func TestTrafficStatsPublishesTenfoldMoves(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTrafficStats(map[string]string{"interval": "1s"})
	mod.Activate(newCtx(kb))
	var puts []string
	kb.Subscribe(knowledge.LabelTrafficFrequency, func(kg knowledge.Knowgget) { puts = append(puts, kg.Value) })
	src, dst := netip.MustParseAddr("192.168.1.2"), netip.MustParseAddr("192.168.1.3")
	raw := stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, 1, 64)
	counts := []int{10, 20, 99, 100, 50, 11, 10, 0, 0, 3, 29, 30}
	for w, n := range append(counts, 1) { // the last window closes the one before
		for i := range n {
			at := t0.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond)
			mod.HandlePacket(mkCap(t, packet.MediumWiFi, raw, at, -60))
		}
	}
	want := []string{"10.000", "100.000", "10.000", "0.000", "3.000", "30.000"}
	if !slices.Equal(puts, want) {
		t.Errorf("windows of %v packets put %v, want %v", counts, puts, want)
	}
}

func TestTrafficStatsAlwaysRequired(t *testing.T) {
	mod, _ := NewTrafficStats(nil)
	if !mod.Required(knowledge.NewBase("K1")) {
		t.Error("traffic stats should always be required")
	}
}

func TestMobilityDeclaresStaticThenMobile(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewMobility(map[string]string{"threshold": "6"})
	mod.Activate(newCtx(kb))

	raw := stack.BuildCTPBeacon(2, 1, 10, 1)
	// Stable RSSI: declared static after enough samples.
	for i := 0; i < 10; i++ {
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(i)*time.Second), -60+float64(i%2)))
	}
	if v, ok := kb.Bool(knowledge.LabelMobility); !ok || v {
		t.Fatalf("static not declared: v=%v ok=%v", v, ok)
	}
	// Large RSSI swing: mobile.
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(11*time.Second), -80))
	if v, _ := kb.Bool(knowledge.LabelMobility); !v {
		t.Fatal("mobility not declared after jump")
	}
	// Quiet again for longer than the quiet period: static.
	for i := 0; i < 20; i++ {
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(12+i)*time.Second), -80.5))
	}
	if v, _ := kb.Bool(knowledge.LabelMobility); v {
		t.Fatal("static not re-declared after quiet period")
	}
}

func TestMobilityPublishesSignalStrength(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewMobility(nil)
	mod.Activate(newCtx(kb))
	raw := stack.BuildCTPBeacon(5, 1, 10, 1)
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0, -63))
	if v, ok := kb.EntityFloat(knowledge.LabelSignalStrength, "0x0005"); !ok || v != -63 {
		t.Errorf("SignalStrength = %v ok=%v", v, ok)
	}
}

// signalPuts activates a Mobility module with the default 4 dB
// threshold (publication quantum 1 dB) and returns a feed function plus
// the SignalStrength values the Knowledge Base accepted, in order.
func signalPuts(t *testing.T, params map[string]string) (kb *knowledge.Base, feed func(sec int, rssi float64), puts *[]string) {
	t.Helper()
	kb = knowledge.NewBase("K1")
	mod, err := NewMobility(params)
	if err != nil {
		t.Fatal(err)
	}
	mod.Activate(newCtx(kb))
	puts = new([]string)
	kb.Subscribe(knowledge.LabelSignalStrength, func(kg knowledge.Knowgget) { *puts = append(*puts, kg.Value) })
	raw := stack.BuildCTPBeacon(5, 1, 10, 1)
	feed = func(sec int, rssi float64) {
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(sec)*time.Second), rssi))
	}
	return kb, feed, puts
}

// TestMobilitySteadySignalIsSilent: once the EWMA of a transmitter
// whose RSSI wobbles inside the publication quantum has settled, no
// frame is a put, however many it sends; with "collective" on, none
// burns a gossip version for every peer to pull.
func TestMobilitySteadySignalIsSilent(t *testing.T) {
	kb, feed, puts := signalPuts(t, map[string]string{"collective": "true"})
	wobble := func(i int) float64 { return -60 - 2*float64(i%2) } // EWMA settles at -61 ± 0.18
	feed(0, wobble(0))
	if len(*puts) != 1 || (*puts)[0] != "-60.0" {
		t.Fatalf("first sight published %v, want [-60.0]", *puts)
	}
	for i := 1; i <= 20; i++ {
		feed(i, wobble(i))
	}
	settled, version := len(*puts), kb.LocalVersion()
	for i := 21; i <= 220; i++ {
		feed(i, wobble(i))
	}
	if len(*puts) != settled {
		t.Errorf("a steady signal was published %d times in 200 frames: %v", len(*puts)-settled, (*puts)[settled:])
	}
	if got := kb.LocalVersion(); got != version {
		t.Errorf("a steady signal moved the node's gossip version %d -> %d", version, got)
	}
}

// TestMobilityPublishesDrift: a slow drift is published when the EWMA
// has moved one quantum (threshold/4 = 1 dB) from the value last
// published, with the EWMA itself as the value, and not again until it
// has moved another.
func TestMobilityPublishesDrift(t *testing.T) {
	kb, feed, puts := signalPuts(t, nil)
	for i := 0; i < 5; i++ {
		feed(i, -60)
	}
	// -62 samples: the EWMA goes -60.6, -61.02 (one quantum: published),
	// -61.314, -61.52, … towards -62 (never a second quantum from -61.02).
	for i := 5; i < 25; i++ {
		feed(i, -62)
	}
	if want := []string{"-60.0", "-61.0"}; len(*puts) != 2 || (*puts)[1] != want[1] {
		t.Fatalf("a 2 dB drift published %v, want %v", *puts, want)
	}
	if v, ok := kb.EntityFloat(knowledge.LabelSignalStrength, "0x0005"); !ok || v != -61 {
		t.Errorf("SignalStrength = %v ok=%v, want the EWMA at publication, -61.0", v, ok)
	}
	if v, _ := kb.Bool(knowledge.LabelMobility); v {
		t.Error("a 2 dB drift declared mobility")
	}
}

// TestMobilityPublishesAfterReanchor: a threshold-exceeding jump
// re-anchors the EWMA at the new RSSI without a put of its own; the
// frame after it publishes where the node now is.
func TestMobilityPublishesAfterReanchor(t *testing.T) {
	kb, feed, puts := signalPuts(t, nil)
	for i := 0; i < 5; i++ {
		feed(i, -60)
	}
	feed(5, -70) // dev 10 dB: moved; the smoothed -63.0 is published, then the EWMA re-anchors at -70
	if v, _ := kb.Bool(knowledge.LabelMobility); !v {
		t.Fatal("a 10 dB jump did not declare mobility")
	}
	if want := []string{"-60.0", "-63.0"}; len(*puts) != 2 || (*puts)[1] != want[1] {
		t.Fatalf("the jump frame published %v, want %v", *puts, want)
	}
	feed(6, -70)
	if len(*puts) != 3 || (*puts)[2] != "-70.0" {
		t.Fatalf("the frame after the re-anchor published %v, want one more put of -70.0", (*puts)[2:])
	}
	feed(7, -70)
	if len(*puts) != 3 {
		t.Errorf("a settled signal was published again: %v", (*puts)[3:])
	}
}

func TestMobilityNotRequiredWhenStatic(t *testing.T) {
	kb := knowledge.NewBase("K1")
	kb.PutStatic(knowledge.LabelMobility, "", "false")
	mod, _ := NewMobility(nil)
	if mod.Required(kb) {
		t.Error("mobility awareness should not be required with static knowledge")
	}
}

func TestMobilityCollectiveCorrelation(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewMobility(map[string]string{"threshold": "6", "collective": "true"})
	mod.Activate(newCtx(kb))
	// The manager's part: hand the module the knowledge it asked for.
	listener := mod.(module.KnowledgeHandler)
	for _, label := range listener.KnowledgeLabels() {
		kb.Subscribe(label, listener.HandleKnowledge)
	}

	raw := stack.BuildCTPBeacon(5, 1, 10, 1)
	// Stable local baseline for entity 0x0005.
	for i := 0; i < 8; i++ {
		mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(i)*time.Second), -60))
	}
	if v, _ := kb.Bool(knowledge.LabelMobility); v {
		t.Fatal("mobile before any deviation")
	}
	// A local sub-threshold deviation alone (4 dB < 6 dB): not enough.
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(9*time.Second), -64))
	if v, _ := kb.Bool(knowledge.LabelMobility); v {
		t.Fatal("sub-threshold deviation alone declared mobility")
	}
	// A peer (K2) reports a significant change for the same entity...
	kb.AcceptGossip("K2", knowledge.Knowgget{
		Label: knowledge.LabelSignalStrength, Value: "-70", Creator: "K2", Entity: "0x0005", Version: 1})
	kb.AcceptGossip("K2", knowledge.Knowgget{
		Label: knowledge.LabelSignalStrength, Value: "-77", Creator: "K2", Entity: "0x0005", Version: 2})
	// ...and the next local sub-threshold deviation corroborates it
	// (EWMA sits near -61.2 after the -64 sample; -65 deviates ~3.8 dB,
	// between threshold/2 and threshold).
	mod.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, t0.Add(10*time.Second), -65))
	if v, _ := kb.Bool(knowledge.LabelMobility); !v {
		t.Fatal("correlated deviation did not declare mobility")
	}
	// The local SignalStrength knowggets were shared as collective.
	kg, ok := kb.Get("K1$" + knowledge.LabelSignalStrength + "@0x0005")
	if !ok || !kg.Collective {
		t.Errorf("local signal knowgget not collective: %+v", kg)
	}
}

func TestSensingParamErrors(t *testing.T) {
	if _, err := NewTopology(map[string]string{"singleHopAfter": "x"}); err == nil {
		t.Error("bad singleHopAfter accepted")
	}
	if _, err := NewTrafficStats(map[string]string{"interval": "x"}); err == nil {
		t.Error("bad interval accepted")
	}
	if _, err := NewMobility(map[string]string{"threshold": "x"}); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := NewMobility(map[string]string{"quiet": "x"}); err == nil {
		t.Error("bad quiet accepted")
	}
	if _, err := NewMobility(map[string]string{"collective": "x"}); err == nil {
		t.Error("bad collective accepted")
	}
}

// trafficFrames is a window's worth of WiFi traffic from one source to
// dsts destinations, echo requests and replies, starting at start.
func trafficFrames(t *testing.T, start time.Time, dsts int) []*packet.Captured {
	t.Helper()
	src := netip.MustParseAddr("192.168.1.2")
	var out []*packet.Captured
	for d := 0; d < dsts; d++ {
		dst := netip.AddrFrom4([4]byte{192, 168, 2, byte(d)})
		for k := 0; k <= d%3; k++ {
			typ := uint8(icmp.TypeEchoRequest)
			if k == 1 {
				typ = icmp.TypeEchoReply
			}
			at := start.Add(time.Duration(len(out)) * time.Millisecond)
			out = append(out, mkCap(t, packet.MediumWiFi, stack.BuildICMPEcho(src, dst, typ, 1, uint16(k), 64), at, -60))
		}
	}
	return out
}

// TestTrafficStatsRollAllocatesNothing: a window roll whose counts moved
// less than tenfold puts nothing, and one that moves them to and from
// zero again puts through the kinds' keyed entries with the rates
// rendered before: neither allocates.
func TestTrafficStatsRollAllocatesNothing(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTrafficStats(map[string]string{"interval": "5s"})
	ts := mod.(*TrafficStats)
	ts.Activate(newCtx(kb))
	window := trafficFrames(t, t0, 40)
	// Windows 0–7 carry traffic; from then on every other one is quiet.
	frames := make([][]*packet.Captured, 16)
	for w := range frames {
		frames[w] = make([]*packet.Captured, len(window))
		at := w
		if w >= 8 {
			at = 8 + 2*(w-8)
		}
		for i, c := range window {
			cp := *c
			cp.Time = c.Time.Add(time.Duration(at) * 5 * time.Second)
			frames[w][i] = &cp
		}
	}
	feed := func(w int) {
		for _, c := range frames[w] {
			ts.HandlePacket(c)
		}
	}
	var puts int
	kb.Subscribe(knowledge.LabelTrafficFrequency, func(knowledge.Knowgget) { puts++ })
	feed(0)
	w := 1
	steady := testing.AllocsPerRun(6, func() { feed(w); w++ })
	if steady != 0 {
		t.Errorf("a window of steady counts allocates %v, want 0", steady)
	}
	if puts != 2 {
		t.Errorf("%d rates put, want 2: the first window's two kinds, then nothing", puts)
	}
	// 40 destinations: 53 requests and 26 replies a window.
	for kind, want := range map[string]string{"ICMPEchoRequest": "10.600", "ICMPEchoReply": "5.200"} {
		if v, ok := kb.Value(knowledge.LabelTrafficFrequency + "." + kind); !ok || v != want {
			t.Errorf("TrafficFrequency.%s = %q, %v; want %s", kind, v, ok, want)
		}
	}
	feed(w) // window 8, after window 7's traffic: no put
	w++
	feed(w) // a quiet window, then traffic: both kinds to 0 and back
	w++
	puts = 0
	toggling := testing.AllocsPerRun(5, func() { feed(w); w++ })
	if toggling != 0 {
		t.Errorf("a window moving known rates to and from zero allocates %v, want 0", toggling)
	}
	if puts != 24 { // 6 quiet windows and 6 busy ones, two kinds each
		t.Errorf("%d rates put, want 24", puts)
	}
}

// TestTrafficStatsSilenceJump: after a long silence the window restarts
// on the grid Captured.Time.Truncate lays out — relative to year 1, so a
// 7 s grid is not the Unix epoch's.
func TestTrafficStatsSilenceJump(t *testing.T) {
	kb := knowledge.NewBase("K1")
	mod, _ := NewTrafficStats(map[string]string{"interval": "7s"})
	ts := mod.(*TrafficStats)
	ts.Activate(newCtx(kb))
	src, dst := netip.MustParseAddr("192.168.1.2"), netip.MustParseAddr("192.168.1.3")
	raw := stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, 1, 64)
	ts.HandlePacket(mkCap(t, packet.MediumWiFi, raw, t0, -60))
	late := mkCap(t, packet.MediumWiFi, raw, t0.Add(1000*time.Second+123*time.Millisecond), -60)
	ts.HandlePacket(late)
	if want := late.Time.Truncate(7 * time.Second).UnixNano(); ts.windowStart != want {
		t.Errorf("window after the silence starts at %d, want %d (Time.Truncate)", ts.windowStart, want)
	}
}

// TestSignalTextMatchesFormatFloat: the cached rendering of a
// SignalStrength value is byte for byte strconv.FormatFloat(v, 'f', 1,
// 64) — on every tenth of the cached span and the halves between them
// (where rounding decides the slot), on both sides of it, on "-0.0",
// and on what no radio reports but a spoofed record may carry — both
// the first time a value is seen and from the table afterwards.
func TestSignalTextMatchesFormatFloat(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), -0.04, 0.04, -0.05, 0.05, 0.25, -0.25, 0.35,
		signalSpan, -signalSpan, signalSpan + 0.04, signalSpan + 0.05, -signalSpan - 0.06,
		1e300, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 1234.5}
	for tenth := -signalSpan*10 - 20; tenth <= signalSpan*10+20; tenth++ {
		values = append(values, float64(tenth)/10, float64(tenth)/10+0.05, float64(tenth)/10-0.049999)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		values = append(values, (rng.Float64()-0.5)*2.2*signalSpan)
	}
	for pass := range 2 {
		for _, v := range values {
			if got, want := signalText(v), strconv.FormatFloat(v, 'f', 1, 64); got != want {
				t.Fatalf("pass %d: signalText(%v) = %q, want %q", pass, v, got, want)
			}
		}
	}
}

// TestSignalTextAllocs: a value inside the span is rendered without
// allocating once it has been seen; one outside allocates its text
// every time, and keeps nothing.
func TestSignalTextAllocs(t *testing.T) {
	seen := []float64{-60, -66.5, -61.95, -63.0, 0, 12.3}
	for _, v := range seen {
		signalText(v)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, v := range seen {
			signalText(v)
		}
	}); allocs != 0 {
		t.Errorf("rendering %d values seen before allocates %v objects, want 0", len(seen), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { signalText(-1e6) }); allocs != 1 {
		t.Errorf("a value outside the span allocates %v objects, want its text alone", allocs)
	}
}

// TestSignalTextConcurrent: the text table is shared by every shard of
// a node, so goroutines rendering the same values at once must each get
// FormatFloat's text (run under -race).
func TestSignalTextConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				v := -100 + float64((i*7+g)%1000)/10
				if got, want := signalText(v), strconv.FormatFloat(v, 'f', 1, 64); got != want {
					t.Errorf("signalText(%v) = %q, want %q", v, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
