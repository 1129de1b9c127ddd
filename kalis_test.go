package kalis

// Tests of the public facade: the API a downstream user programs
// against.

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/eval"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

var tEpoch = netsim.Epoch

func capOf(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

func TestFacadeEndToEnd(t *testing.T) {
	node, err := New(WithNodeID("edge"), WithWindowSize(128))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.ID() != "edge" {
		t.Errorf("ID = %q", node.ID())
	}

	var alerts []Alert
	node.OnAlert(func(a Alert) { alerts = append(alerts, a) })

	node.HandleCapture(capOf(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), tEpoch, -50))
	for i := 0; i < 30; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts through the facade")
	}
	if len(node.Alerts()) != len(alerts) {
		t.Error("Alerts() and OnAlert disagree")
	}
	found := false
	for _, kg := range node.Knowledge() {
		if kg.Label == "Multihop" && kg.Value == "true" {
			found = true
		}
	}
	if !found {
		t.Error("Multihop knowgget missing from Knowledge()")
	}
}

func TestFacadeStaticKnowledgeAndModules(t *testing.T) {
	node, err := New(WithoutDefaultModules())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.ActiveModules(); len(got) != 0 {
		t.Errorf("modules active without installs: %v", got)
	}
	node.PutKnowledge("Mobility", "", "false")
	if err := node.InstallModule("MobilityAwarenessModule", nil); err != nil {
		t.Fatal(err)
	}
	// Statically-known mobility suppresses the sensing module.
	if got := node.ActiveModules(); len(got) != 0 {
		t.Errorf("mobility module active despite static knowledge: %v", got)
	}
}

func TestFacadeWithConfig(t *testing.T) {
	node, err := New(
		WithoutDefaultModules(),
		WithConfig(`modules = { TrafficStatsModule(interval=2s) } knowggets = { Multihop = true }`),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.ActiveModules(); len(got) != 1 || got[0] != "TrafficStatsModule" {
		t.Errorf("active = %v", got)
	}
}

func TestFacadeConfigError(t *testing.T) {
	if _, err := New(WithConfig("modules = {")); err == nil {
		t.Error("bad config accepted")
	}
}

// countingModule is a minimal custom module for extensibility tests.
type countingModule struct {
	ctx     *ModuleContext
	packets int
}

func (m *countingModule) Name() string                  { return "CountingModule" }
func (m *countingModule) Kind() module.Kind             { return module.KindDetection }
func (m *countingModule) WatchLabels() []string         { return nil }
func (m *countingModule) Required(*knowledge.Base) bool { return true }
func (m *countingModule) Activate(ctx *ModuleContext)   { m.ctx = ctx }
func (m *countingModule) Deactivate()                   { m.ctx = nil }
func (m *countingModule) HandlePacket(c *Captured) {
	m.packets++
	if m.packets == 3 {
		m.ctx.Emit(Alert{Time: c.Time, Attack: "custom-anomaly", Module: m.Name(), Confidence: 0.5})
	}
}

func TestFacadeCustomModule(t *testing.T) {
	node, err := New(WithoutDefaultModules())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mod := &countingModule{}
	node.RegisterModule("CountingModule", func(map[string]string) (Module, error) { return mod, nil })
	if err := node.InstallModule("CountingModule", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPBeacon(2, 1, 10, uint8(i)), tEpoch.Add(time.Duration(i)*time.Second), -60))
	}
	if mod.packets != 5 {
		t.Errorf("custom module saw %d packets", mod.packets)
	}
	if len(node.Alerts()) != 1 || node.Alerts()[0].Attack != "custom-anomaly" {
		t.Errorf("alerts = %+v", node.Alerts())
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	// Record with one node, replay into another — the §VI-A
	// methodology through the public API.
	var buf bytes.Buffer
	rec, err := New(WithNodeID("recorder"))
	if err != nil {
		t.Fatal(err)
	}
	rec.SetLog(&buf)
	for i := 0; i < 20; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		rec.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if err := rec.Close(); err != nil { // Close flushes the trace log
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing logged")
	}

	replayer, err := New(WithNodeID("replayer"))
	if err != nil {
		t.Fatal(err)
	}
	defer replayer.Close()
	replayed, skipped, err := replayer.ReplayTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || replayed == 0 {
		t.Errorf("replayed=%d skipped=%d", replayed, skipped)
	}
	// The replayer reaches the same conclusion as live capture.
	if v, ok := boolKnowledge(replayer, "Multihop"); !ok || !v {
		t.Error("replayer did not learn Multihop from the trace")
	}
}

// TestFacadeReplayTornTail: ReplayTrace streams, so a trace whose last
// record was cut short — a capture killed mid-write — replays every
// frame before the tear and returns their counts with the error, where
// reading the whole file first replayed nothing.
func TestFacadeReplayTornTail(t *testing.T) {
	const frames = 20
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range frames {
		raw := stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)})
		rec := &trace.Record{Time: tEpoch.Add(time.Duration(i) * 3 * time.Second), Medium: packet.MediumIEEE802154, RSSI: -65, Raw: raw}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]

	node, err := New(WithNodeID("replayer"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	replayed, skipped, err := node.ReplayTrace(bytes.NewReader(torn))
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Errorf("err = %v, want a corrupt record", err)
	}
	if replayed != frames-1 || skipped != 0 {
		t.Errorf("replayed=%d skipped=%d before the torn record, want %d and 0", replayed, skipped, frames-1)
	}
	if got := len(node.Recent(0)); got != frames-1 {
		t.Errorf("the window holds %d frames, want the %d before the tear", got, frames-1)
	}
}

// TestReplayFrameAllocs pins what a replayed frame costs from raw
// record to dispatched capture — Reader.Read, stack.Decode,
// HandleCapture — on a warmed in-line node with the whole module
// library, over a recorded selective-forwarding/wsn trace: the decoded
// frame, which its caller owns, and a share of the 4 KiB
// slab its raw bytes were carved from; flows, alerts and knowledge
// changes amortize to little over a pass. The second pass runs
// 10 minutes after the first on the capture clock, past every window,
// cooldown and flow timeout, so it meets the state a long deployment
// would. A heap Record per read, a formatted SignalStrength value per
// put and reallocating evidence queues cost ≈ 2.2 allocations a frame.
func TestReplayFrameAllocs(t *testing.T) {
	sc, ok := eval.ScenarioByName("selective-forwarding/wsn")
	if !ok {
		t.Fatal("no selective-forwarding/wsn scenario")
	}
	run := sc.Build(1, 5)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var span time.Duration
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		if e, ok := c.Layers[0].(interface{ Encode() []byte }); ok {
			span = c.Time.Sub(tEpoch)
			if err := w.Write(&trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.Encode()}); err != nil {
				t.Fatal(err)
			}
		}
	})
	run.Sim.Run(run.End)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	node, err := New(WithNodeID("K1"))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	pass := func(shift time.Duration) (frames int) {
		rd := trace.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			r, err := rd.Read()
			if errors.Is(err, io.EOF) {
				return frames
			}
			if err != nil {
				t.Fatal(err)
			}
			c, err := stack.Decode(r.Medium, r.Raw)
			if err != nil {
				continue
			}
			c.Time = r.Time.Add(shift)
			c.RSSI = r.RSSI
			node.HandleCapture(c)
			frames++
		}
	}
	pass(0) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames := pass(span + 10*time.Minute)
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	if frames < 1000 {
		t.Fatalf("the trace replays %d frames, too few to average over", frames)
	}
	if perFrame > 1.2 {
		t.Errorf("a replayed frame allocates %.3f objects, want at most 1.2 (the frame and a share of its slab)", perFrame)
	}
	t.Logf("%d frames, %.3f allocations per frame", frames, perFrame)
}

// TestWindowRetention pins what a node's Data Store window keeps alive.
// A full 4 096-frame window of selective-forwarding/wsn is replayed
// into two nodes alike but for their window capacity, 4 096 and 1; after
// a GC the difference between their live heaps, per windowed frame, is
// what the window costs, and it must stay within 1.5x the bytes of the
// frame's trace record — the ring, its slack and the record positions
// beside it. A window of decoded frames kept each frame value, ≈ 300 B
// of layer structs, several times its record.
func TestWindowRetention(t *testing.T) {
	const window = 4096
	sc, ok := eval.ScenarioByName("selective-forwarding/wsn")
	if !ok {
		t.Fatal("no selective-forwarding/wsn scenario")
	}
	run := sc.Build(1, 25)
	var recs []trace.Record
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		if e, ok := c.Layers[0].(trace.Frame); ok {
			recs = append(recs, trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.AppendEncode(nil), Truth: c.Truth})
		}
	})
	run.Sim.Run(run.End)
	if len(recs) < 2*window {
		t.Fatalf("the scenario records %d frames, fewer than two windows", len(recs))
	}
	var log bytes.Buffer
	w := trace.NewWriter(&log)
	for i := range recs[len(recs)-window:] {
		if err := w.Write(&recs[len(recs)-window+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recordBytes := log.Len() - len(trace.Magic) - 1 // less the stream header

	replay := func(capacity int) *Node {
		node, err := New(WithNodeID("K1"), WithWindowSize(capacity))
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			c, err := recs[i].Decode()
			if err != nil {
				t.Fatal(err)
			}
			node.HandleCapture(c)
		}
		return node
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	replay(window).Close() // warm the process-wide identity table
	base := liveHeap()
	small := replay(1)
	withSmall := liveHeap()
	full := replay(window)
	withBoth := liveHeap()
	if n := len(full.Recent(0)); n != window {
		t.Fatalf("the window holds %d frames, want %d", n, window)
	}
	runtime.KeepAlive(recs)
	runtime.KeepAlive(small)
	small.Close()
	full.Close()

	perFrame := (float64(withBoth) - 2*float64(withSmall) + float64(base)) / window
	perRecord := float64(recordBytes) / window
	if perFrame > 1.5*perRecord {
		t.Errorf("the window keeps %.0f B alive per frame, over 1.5x its %.1f-byte trace record", perFrame, perRecord)
	}
	t.Logf("the window keeps %.1f B alive per frame of %.1f record bytes (%.2fx)", perFrame, perRecord, perFrame/perRecord)
}

func boolKnowledge(n *Node, label string) (bool, bool) {
	for _, kg := range n.Knowledge() {
		if kg.Label == label {
			return kg.Value == "true", true
		}
	}
	return false, false
}

func TestFacadeFirewall(t *testing.T) {
	node, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	fw := node.NewFirewall(0.8)

	// Drive a blackhole detection; the firewall must start dropping
	// the suspect's frames.
	node.HandleCapture(capOf(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), tEpoch, -50))
	for i := 0; i < 30; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if got := fw.Blocked(); len(got) == 0 {
		t.Fatal("firewall learned nothing from alerts")
	}
	suspectFrame := capOf(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 2, 99, 0, 10, []byte{0x01, 99}), tEpoch.Add(time.Hour), -60)
	if fw.Filter(suspectFrame) != FirewallDrop {
		t.Error("suspect frame passed the firewall")
	}
}
