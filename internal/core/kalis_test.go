package core

import (
	"bytes"
	"net/netip"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

var t0 = time.Unix(1500000000, 0).UTC()

func mkCap(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

func TestNewInstallsFullLibrary(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := len(k.Installed()); got != 16 { // 3 sensing + 13 detection
		t.Errorf("installed = %d, want 16", got)
	}
	// Only sensing modules may be active with an empty Knowledge Base.
	for _, name := range k.ActiveModules() {
		switch name {
		case "TopologyDiscoveryModule", "TrafficStatsModule", "MobilityAwarenessModule":
		default:
			t.Errorf("detection module %s active without knowledge", name)
		}
	}
}

func TestConfigDrivenSetup(t *testing.T) {
	cfg := `
modules = {
	TrafficStatsModule (interval=2s),
	TopologyDiscoveryModule
}
knowggets = {
	Mobility = false
}
`
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, ConfigText: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := k.Installed(); len(got) != 2 {
		t.Errorf("installed = %v", got)
	}
	if v, ok := k.KB().Bool(knowledge.LabelMobility); !ok || v {
		t.Error("static knowgget not loaded")
	}
	if !k.KB().IsStatic(knowledge.LabelMobility) {
		t.Error("static knowgget not marked static")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{ConfigText: "modules = {"}); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := New(Config{ConfigText: "modules = { NoSuchModule }"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestEndToEndKnowledgeActivationAlert(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var alerts []module.Alert
	k.OnAlert(func(a module.Alert) { alerts = append(alerts, a) })
	var knowggets []knowledge.Knowgget
	k.OnKnowledge(func(kg knowledge.Knowgget) { knowggets = append(knowggets, kg) })

	// Multi-hop CTP traffic with a blackhole: relay 2 receives but
	// never forwards.
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * 3 * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if len(alerts) == 0 {
		t.Fatal("no alert from end-to-end pipeline")
	}
	if alerts[0].Attack != "blackhole" || alerts[0].Suspects[0] != "0x0002" {
		t.Errorf("alert = %+v", alerts[0])
	}
	if len(knowggets) == 0 {
		t.Error("no knowledge events published")
	}
	if p, _, _ := k.Stats(); p != 31 {
		t.Errorf("packets dispatched = %d", p)
	}
}

func TestAsyncModeDeliversEverything(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if err := k.Close(); err != nil { // drains the async bus
		t.Fatal(err)
	}
	if p, _, _ := k.Stats(); p != 50 {
		t.Errorf("packets dispatched = %d, want 50 after drain", p)
	}
}

func TestTrafficLogging(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var buf bytes.Buffer
	k.SetLog(&buf)
	for i := 0; i < 5; i++ {
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPBeacon(2, 1, 10, uint8(i)), t0.Add(time.Duration(i)*time.Second), -60))
	}
	if err := k.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(&buf)
	if err != nil || len(recs) != 5 {
		t.Fatalf("logged %d records, err %v", len(recs), err)
	}
}

func TestEncryptedNetworkDisablesAlterationDetection(t *testing.T) {
	// The Fig. 3 prevention-technique feature: observing link-layer
	// security means the devices are immune to data alteration, so the
	// corresponding module deactivates itself.
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	// Multi-hop unencrypted traffic first: alteration detection is on.
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 3, 1, 1, 10, []byte{0x01, 1}), t0.Add(time.Second), -55))
	if !contains(k.ActiveModules(), "DataAlterationModule") {
		t.Fatalf("alteration module inactive on plaintext network: %v", k.ActiveModules())
	}

	// A secured frame appears: the Encrypted knowgget flips and the
	// module deactivates.
	sec := &ieee802154.Frame{
		Type:          ieee802154.FrameData,
		Security:      true,
		PANIDCompress: true,
		Seq:           9,
		DstPAN:        0x1234,
		DstMode:       ieee802154.AddrShort,
		SrcMode:       ieee802154.AddrShort,
		DstShort:      1,
		SrcShort:      2,
		Payload:       []byte{0xde, 0xad}, // opaque ciphertext
	}
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, sec.Encode(), t0.Add(2*time.Second), -55))
	if v, ok := k.KB().Bool(knowledge.LabelEncrypted); !ok || !v {
		t.Fatal("Encrypted knowgget not set from secured frame")
	}
	if contains(k.ActiveModules(), "DataAlterationModule") {
		t.Errorf("alteration module still active on encrypted network: %v", k.ActiveModules())
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestInstallUnknownModule(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.Install("NoSuchModule", nil); err == nil {
		t.Error("unknown module installed")
	}
}

func TestDefaultNodeID(t *testing.T) {
	k, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if k.ID() != "K1" {
		t.Errorf("ID = %q", k.ID())
	}
}

// sensingOnly installs the three sensing modules and no detection
// module. The multi-shard tests use it: a knowledge flip on one shard's
// worker activates the other shards' detection-module instances from
// that goroutine, concurrently with their own dispatch — the sharding
// hazard a later issue owns, and not what these tests are about.
const sensingOnly = `modules = { TopologyDiscoveryModule, TrafficStatsModule, MobilityAwarenessModule }`

func TestTelemetryWiredThroughPipeline(t *testing.T) {
	// The same wiring serves every shard count: the gauges are computed
	// at scrape from the components, so they must agree with the node's
	// own accessors on a 1-shard and a 2-shard node alike.
	for _, shards := range []int{1, 2} {
		k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, ConfigText: sensingOnly,
			Shards: shards, IngestBlock: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
				stack.BuildCTPBeacon(uint16(2+i%4), 1, 10, uint8(i)), at, -60))
		}
		k.DrainIngest()

		var sb strings.Builder
		if err := k.Telemetry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "kalis_packets_total 20") {
			t.Errorf("shards=%d: packets counter missing/wrong:\n%s", shards, out)
		}
		if strings.Contains(out, `topic="packet"`) {
			t.Errorf("shards=%d: packets still counted on the bus:\n%s", shards, out)
		}
		window, active, flows := len(k.Recent(0)), len(k.ActiveModules()), 0
		for _, s := range k.shards {
			flows += s.table.Len()
		}
		if window != 20 || flows == 0 || active == 0 {
			t.Errorf("shards=%d: window %d, flows %d, active %d: nothing to compare",
				shards, window, flows, active)
		}
		snap := k.Telemetry().Snapshot()
		for name, want := range map[string]int{
			"kalis_modules_active":         active,
			"kalis_module_quarantined":     len(k.QuarantinedModules()),
			"kalis_store_window_occupancy": window,
			"kalis_flow_active":            flows,
		} {
			if got := snap[name].Value; got != float64(want) {
				t.Errorf("shards=%d: %s = %v, want %d", shards, name, got, want)
			}
		}
		// Sensing modules ran on every packet. Their latency histogram is
		// an estimate — each shard's manager times one packet of every 16
		// it dispatches, its first among them, and weights every
		// observation 16 — so the count is a positive multiple of the
		// stride within one stride per shard of the 20 invocations.
		const stride = 16
		match := regexp.MustCompile(`kalis_module_packet_seconds_count\{module="TopologyDiscoveryModule"\} (\d+)\n`).
			FindStringSubmatch(out)
		if match == nil {
			t.Fatalf("shards=%d: module latency histogram missing:\n%s", shards, out)
		}
		count, _ := strconv.Atoi(match[1])
		if count <= 0 || count%stride != 0 || count <= 20-stride*shards || count >= 20+stride*shards {
			t.Errorf("shards=%d: kalis_module_packet_seconds_count = %d after 20 invocations, want a positive multiple of %d within %d of 20",
				shards, count, stride, stride*shards)
		}
		k.Close()
	}
}

// TestQuarantineGaugeAtScrape: kalis_module_quarantined is computed from
// the supervisors at scrape time and follows a panic without any
// per-packet gauge store.
func TestQuarantineGaugeAtScrape(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.Registry().Register("bomb", func(map[string]string) (module.Module, error) {
		return bombModule{}, nil
	})
	if err := k.Install("bomb", nil); err != nil {
		t.Fatal(err)
	}
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(2, 1, 10, 1), t0, -60))
	if q := k.QuarantinedModules(); len(q) != 1 || q[0] != "bomb" {
		t.Fatalf("quarantined = %v", q)
	}
	if got := k.Telemetry().Snapshot()["kalis_module_quarantined"].Value; got != float64(1) {
		t.Errorf("kalis_module_quarantined = %v, want 1", got)
	}
	if k.LastPanic("bomb") != "boom" {
		t.Errorf("LastPanic = %q", k.LastPanic("bomb"))
	}
}

// bombModule is an always-on module that panics on every packet.
type bombModule struct{}

func (bombModule) Name() string                    { return "bomb" }
func (bombModule) Kind() module.Kind               { return module.KindDetection }
func (bombModule) WatchLabels() []string           { return nil }
func (bombModule) Required(*knowledge.Base) bool   { return true }
func (bombModule) Activate(*module.Context)        {}
func (bombModule) Deactivate()                     {}
func (bombModule) HandlePacket(c *packet.Captured) { panic("boom") }

// TestShardedAccessorsCoverEveryShard: the node-level accessors answer
// for all shards — Stats sums them (the eval CPU proxy read shard 0
// only) and Recent merges every window in capture order. The traffic
// alternates two media, so each of the two shards dispatches half.
func TestShardedAccessorsCoverEveryShard(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, ConfigText: sensingOnly,
		Shards: 2, IngestBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	const n = 64
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		c := mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(uint16(2+i%8), 1, 10, uint8(i)), at, -60)
		if i%2 == 1 {
			src := netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i%8)})
			c = mkCap(t, packet.MediumWiFi, stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, uint16(i), 64), at, -60)
		}
		k.HandleCapture(c)
	}
	k.DrainIngest()
	packets, invocations, _ := k.Stats()
	if packets != n {
		t.Errorf("Stats packets = %d, want %d", packets, n)
	}
	if invocations < n {
		t.Errorf("Stats invocations = %d, want >= %d (sensing modules see every packet)", invocations, n)
	}
	for i, s := range k.shards {
		if p, _, _ := s.manager.Stats(); p != n/2 {
			t.Fatalf("shard %d dispatched %d of %d packets, want its medium's %d", i, p, n, n/2)
		}
	}
	recent := k.Recent(0)
	if len(recent) != n {
		t.Fatalf("Recent(0) = %d packets, want %d", len(recent), n)
	}
	for i, c := range recent {
		if want := t0.Add(time.Duration(i) * time.Second); !c.Time.Equal(want) {
			t.Fatalf("Recent(0)[%d] captured at %v, want %v (capture order across shards)", i, c.Time, want)
		}
	}
	if last := k.Recent(10); len(last) != 10 || !last[0].Time.Equal(t0.Add((n-10)*time.Second)) {
		t.Errorf("Recent(10) = %d packets starting %v", len(last), last[0].Time)
	}
}

// TestShardedSyncPointsFollowAnyMedium: every shard drives the durable
// state's sync points, so a sharded node that hears WiFi only — none
// of it on the primary's medium — still makes its knowledge durable
// while it runs, not only at Close.
func TestShardedSyncPointsFollowAnyMedium(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, ConfigText: sensingOnly,
		Shards: 2, IngestBlock: true, StateDir: t.TempDir(), PersistInterval: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i := 0; i < 20; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i%8)})
		at := t0.Add(time.Duration(i) * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumWiFi, stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, uint16(i), 64), at, -60))
		k.DrainIngest() // one batch a frame: a tick a second of capture time
	}
	if err := k.Persistence().Err(); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := k.primary().manager.Stats(); p != 0 {
		t.Fatalf("the primary dispatched %d WiFi frames: the test needs them on another shard", p)
	}
	if k.KB().Len() == 0 {
		t.Fatal("the WiFi frames changed no knowledge: nothing to make durable")
	}
	if got := k.Telemetry().Counter("kalis_persist_sync_total", "").Value(); got < 1 {
		t.Errorf("kalis_persist_sync_total = %v over 19 s of capture time at a 2 s interval, want >= 1", got)
	}
}

// TestHandleCaptureAfterClose: a closed node ignores captures on the
// in-line path as it does on the ring path.
func TestHandleCaptureAfterClose(t *testing.T) {
	for _, async := range []bool{false, true} {
		k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true,
			Async: async, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		c := mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(2, 1, 10, 1), t0, -60)
		k.HandleCapture(c)
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		k.HandleCapture(c)
		if p, _, _ := k.Stats(); p != 1 {
			t.Errorf("async=%v: %d packets dispatched, want 1 (none after Close)", async, p)
		}
	}
}

// TestInlineHandleCaptureAllocs pins the in-line executor's one-element
// batch to the stack: with no modules installed and a repeated same-
// flow frame, HandleCapture allocates nothing — as at the commit before
// packets left the event bus (measured there: 0 allocs/op).
func TestInlineHandleCaptureAllocs(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	c := mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(2, 1, 10, 1), t0, -60)
	k.HandleCapture(c) // creates the flow
	if avg := testing.AllocsPerRun(1000, func() { k.HandleCapture(c) }); avg != 0 {
		t.Errorf("in-line HandleCapture allocates %.2f objects per packet, want 0", avg)
	}
}

// signalFrames is one CTP data frame over and over with its RSSI
// alternating between lo and hi: what a full-library node's Mobility
// module sees of one stationary transmitter.
func signalFrames(t *testing.T, n int, lo, hi float64) []*packet.Captured {
	t.Helper()
	frames := make([]*packet.Captured, n)
	raw := stack.BuildCTPData(3, 2, 3, 1, 1, 20, []byte{0x01, 0x01})
	for i := range frames {
		rssi := lo
		if i%2 == 1 {
			rssi = hi
		}
		frames[i] = mkCap(t, packet.MediumIEEE802154, raw, t0, rssi)
	}
	return frames
}

// knowledgeAllocs warms a full-library node on the first warm frames
// and returns the allocations per HandleCapture and the knowledge
// changes published over the rest.
func knowledgeAllocs(t *testing.T, frames []*packet.Captured, warm int) (allocs float64, changes uint64) {
	t.Helper()
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	next := 0
	handle := func() { k.HandleCapture(frames[next]); next++ }
	for next < warm {
		handle()
	}
	before := k.changes.published.Value()
	// AllocsPerRun calls handle once more than it is told to, to warm up.
	allocs = testing.AllocsPerRun(len(frames)-warm-1, handle)
	return allocs, k.changes.published.Value() - before
}

// TestKnowledgeChangeAllocs pins the per-KB-change path, which
// TestInlineHandleCaptureAllocs (no module installed) and
// BenchmarkKalisPerPacket (each node repeats its RSSI, so its EWMA
// never moves) do not reach: the full library on a warmed node, and a
// transmitter whose RSSI swings 6.5 dB from frame to frame — under the
// 4 dB movement threshold once smoothed, but enough to move the EWMA
// more than the 1 dB publication quantum every time — so that every
// frame is an accepted SignalStrength put, handed to the Knowledge
// Base's subscribers and the node's knowledge fan-out. Measured: 0
// allocs per frame — the smoothed values cycle through a few tenths of
// a dB, and Mobility renders a value it has published before from its
// table of texts. It was 2 while every put formatted its value afresh
// (strconv.FormatFloat), 4 while every put also built its storage key
// (Knowgget.Key) — Mobility now keys its SignalStrength entry once per
// transmitter (knowledge.Entry) — and 6 at the commit before PR 18,
// when every change was also boxed for the event bus and the handler
// list gathered into a fresh slice.
func TestKnowledgeChangeAllocs(t *testing.T) {
	const warm, runs = 200, 1000
	allocs, changes := knowledgeAllocs(t, signalFrames(t, warm+runs+1, -60, -66.5), warm)
	if changes < runs {
		t.Fatalf("%d knowledge changes over %d frames: not every frame was an accepted put", changes, runs)
	}
	if allocs != 0 {
		t.Errorf("a frame that changes the Knowledge Base allocates %v objects, want 0", allocs)
	}
}

// TestSteadySignalIsNotKnowledge is the twin: the same node and frames,
// with the RSSI wobbling 2 dB — the smoothed value moves ≈ 0.35 dB, well
// inside the quantum. That is not knowledge: no change is published and
// the frame allocates nothing, the whole library installed, exactly as
// TestInlineHandleCaptureAllocs pins for a node with no module at all.
// (Until the publication rule every such frame was a put: 4 allocs and
// one knowledge change per frame, journalled on a durable node.)
func TestSteadySignalIsNotKnowledge(t *testing.T) {
	const warm, runs = 200, 1000
	allocs, changes := knowledgeAllocs(t, signalFrames(t, warm+runs+1, -60, -62), warm)
	if changes != 0 {
		t.Errorf("%d knowledge changes over %d frames of a steady signal, want 0", changes, runs)
	}
	if allocs != 0 {
		t.Errorf("a frame that changes nothing allocates %v objects, want 0", allocs)
	}
}

// TestSteadySignalIsNotJournalled: on a durable node the write-ahead
// journal takes one record — one write(2) — per accepted Knowledge Base
// change, so what reaches the Knowledge Base per frame is what reaches
// the disk per frame. A thousand frames of a settled signal leave
// kalis_persist_journal_bytes where it was; until the publication rule
// each of them appended a SignalStrength record.
func TestSteadySignalIsNotJournalled(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	journal := k.Telemetry().Gauge("kalis_persist_journal_bytes", "")
	empty := journal.Value()
	frames := signalFrames(t, 1200, -60, -62)
	for _, c := range frames[:200] {
		k.HandleCapture(c)
	}
	settled := journal.Value()
	if settled <= empty {
		t.Fatalf("journal is %d bytes after the first sight of a transmitter, %d when opened: nothing was journalled", settled, empty)
	}
	for _, c := range frames[200:] {
		k.HandleCapture(c)
	}
	if got := journal.Value(); got != settled {
		t.Errorf("journal grew %d -> %d bytes over 1000 frames of a steady signal", settled, got)
	}
}
