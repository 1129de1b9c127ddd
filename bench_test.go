package kalis

// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out
// in DESIGN.md. Benches use a reduced episode count to keep -bench=.
// affordable; cmd/kalis-bench runs the full 50-episode configuration.
//
// Run with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/kalis-bench -exp all   # full-scale tables

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/eval"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
	"kalis/internal/snortlike"
	"kalis/internal/taxonomy"
	"kalis/internal/trace"
)

// benchOpts keeps the per-iteration cost of the experiment benches
// manageable while preserving the result shapes.
var benchOpts = eval.Options{Seed: 1, Episodes: 6, SnortCommunityRules: 1000}

// --- one bench per table / figure ---

// BenchmarkTableI regenerates Table I (taxonomy by target).
func BenchmarkTableI(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		taxonomy.WriteTableI(&buf)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkFigure3 regenerates Figure 3 (taxonomy by features).
func BenchmarkFigure3(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		taxonomy.WriteFigure3(&buf)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkTableII regenerates Table II (effectiveness and performance
// of the traditional IDS, the Snort-like baseline, and Kalis across
// the §VI-B scenarios).
func BenchmarkTableII(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.Table2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteTable2(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkFigure8 regenerates Figure 8 (Kalis vs traditional IDS
// across all eight attack scenarios).
func BenchmarkFigure8(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig8(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteFig8(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkReactivity regenerates the §VI-C reactivity experiment.
func BenchmarkReactivity(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.Reactivity(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteReactivity(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkKnowledgeSharing regenerates the §VI-D wormhole experiment.
func BenchmarkKnowledgeSharing(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.KnowledgeSharing(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteKnowledgeSharing(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkCountermeasure regenerates the §VI-B1 response-action
// comparison.
func BenchmarkCountermeasure(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.Countermeasure(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteCountermeasure(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkDeliveryImpact regenerates the countermeasure-as-network-
// functionality experiment (metric (iii) of §VI-B) on the
// adaptive-routing sinkhole.
func BenchmarkDeliveryImpact(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		res, err := eval.DeliveryImpact(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		eval.WriteDelivery(&buf, res)
	}
	b.Log("\n" + buf.String())
}

// --- per-scenario benches (one full IDS run per iteration) ---

func benchScenario(b *testing.B, name string) {
	sc, ok := eval.ScenarioByName(name)
	if !ok {
		b.Fatalf("unknown scenario %s", name)
	}
	for i := 0; i < b.N; i++ {
		res, err := eval.Execute(sc, eval.NewKalis("K1"), 1, 6)
		if err != nil {
			b.Fatal(err)
		}
		if res.Score.Detected == 0 {
			b.Fatalf("%s: nothing detected", name)
		}
	}
}

// BenchmarkScenarioICMPFlood runs the §VI-B1 scenario end to end.
func BenchmarkScenarioICMPFlood(b *testing.B) { benchScenario(b, "icmp-flood") }

// BenchmarkScenarioReplication runs the §VI-B2 scenario end to end.
func BenchmarkScenarioReplication(b *testing.B) { benchScenario(b, "replication") }

// BenchmarkScenarioSelectiveForwarding runs the §VI-C attack scenario.
func BenchmarkScenarioSelectiveForwarding(b *testing.B) {
	benchScenario(b, "selective-forwarding")
}

// --- ablation benches (design choices from DESIGN.md §5) ---

// BenchmarkAblationKnowledgeDriven measures the per-run cost of
// knowledge-driven module selection vs all-modules-on, on the same
// traffic — the resource argument of §III.
func BenchmarkAblationKnowledgeDriven(b *testing.B) {
	sc, _ := eval.ScenarioByName("icmp-flood")
	for _, mode := range []struct {
		name    string
		factory eval.Factory
	}{
		{"knowledge-driven", eval.NewKalis("K1")},
		{"all-modules-on", eval.NewTraditional()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var work, packets uint64
			for i := 0; i < b.N; i++ {
				res, err := eval.Execute(sc, mode.factory, 1, 6)
				if err != nil {
					b.Fatal(err)
				}
				work += res.Resources.WorkUnits
				packets += res.Resources.Packets
			}
			b.ReportMetric(float64(work)/float64(packets), "module-invocations/packet")
		})
	}
}

// BenchmarkAblationSnortRulesetSize sweeps the signature-IDS ruleset
// size: the linear per-packet cost Kalis' adaptive activation avoids.
func BenchmarkAblationSnortRulesetSize(b *testing.B) {
	src, dst := netip.MustParseAddr("192.168.1.5"), netip.MustParseAddr("34.2.2.2")
	raw := stack.BuildICMPEchoPayload(src, dst, icmp.TypeEchoReply, 1, 1, 64, stack.PingPayload())
	c, err := stack.Decode(packet.MediumWiFi, raw)
	if err != nil {
		b.Fatal(err)
	}
	c.Time = netsim.Epoch
	for _, n := range []int{100, 1000, 3000} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			rules, err := snortlike.DefaultRuleset(n)
			if err != nil {
				b.Fatal(err)
			}
			engine := snortlike.NewEngine(rules)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.HandleCapture(c)
			}
		})
	}
}

// BenchmarkAblationKBLookup measures the Knowledge Base's key-encoding
// query paths (exact / creator prefix), §V.
func BenchmarkAblationKBLookup(b *testing.B) {
	kb := knowledge.NewBase("K1")
	for i := 0; i < 64; i++ {
		kb.PutEntity("SignalStrength", fmt.Sprintf("node-%02d", i), "-67")
		kb.Put(fmt.Sprintf("TrafficFrequency.Kind%02d", i), "0.5")
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := kb.Get("K1$SignalStrength@node-07"); !ok {
				b.Fatal("missing")
			}
		}
	})
	b.Run("prefix-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := kb.QueryLocal(); len(got) == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkAblationWindowSize measures Data Store append cost across
// sliding-window sizes.
func BenchmarkAblationWindowSize(b *testing.B) {
	raw := stack.BuildCTPBeacon(5, 1, 10, 1)
	c, err := stack.Decode(packet.MediumIEEE802154, raw)
	if err != nil {
		b.Fatal(err)
	}
	c.Time = netsim.Epoch
	for _, size := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("window-%d", size), func(b *testing.B) {
			store := datastore.New(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := store.Append(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolDecode measures the Communication System's parsing
// path per stack shape. Gated by benchdiff in ns/op and, exactly, in
// allocs/op: a decoded frame is one allocation.
func BenchmarkProtocolDecode(b *testing.B) {
	src, dst := netip.MustParseAddr("192.168.1.5"), netip.MustParseAddr("34.2.2.2")
	frames := map[string]struct {
		medium packet.Medium
		raw    []byte
	}{
		"ctp-data":   {packet.MediumIEEE802154, stack.BuildCTPData(5, 3, 5, 1, 0, 10, []byte{0x01, 0x01})},
		"ctp-beacon": {packet.MediumIEEE802154, stack.BuildCTPBeacon(3, 1, 30, 2)},
		"zigbee":     {packet.MediumIEEE802154, stack.BuildZigbeeData(2, 1, 9, 1, 5, []byte("cmd"))},
		"rpl-dio":    {packet.MediumIEEE802154, stack.BuildRPLDIO(3, 1, 512, 1)},
		"tcp-wifi":   {packet.MediumWiFi, stack.BuildTCP(src, dst, 4000, 443, 0x12, 1, 1, 1, nil)},
		"icmp-wifi":  {packet.MediumWiFi, stack.BuildICMPEcho(src, dst, 0, 1, 1, 64)},
		"udp-wifi":   {packet.MediumWiFi, stack.BuildUDP(src, dst, 56700, 56700, 1, []byte("lifx"))},
		"ble-adv":    {packet.MediumBluetooth, stack.BuildBLEAdv([6]byte{1, 2, 3, 4, 5, 6}, []byte{0x02, 0x01, 0x06})},
	}
	for name, f := range frames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stack.Decode(f.medium, f.raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceRoundTrip measures trace write+read throughput, the
// record/replay substrate of the evaluation methodology.
func BenchmarkTraceRoundTrip(b *testing.B) {
	rec := &trace.Record{
		Time:   netsim.Epoch,
		Medium: packet.MediumIEEE802154,
		RSSI:   -61.5,
		Raw:    stack.BuildCTPData(5, 3, 5, 1, 0, 10, []byte{0x01, 0x01}),
	}
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for j := 0; j < 16; j++ {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		recs, err := trace.ReadAll(&buf)
		if err != nil || len(recs) != 16 {
			b.Fatalf("read %d, err %v", len(recs), err)
		}
	}
}

// BenchmarkKalisPerPacket measures the steady-state per-packet cost of
// a fully warmed knowledge-driven node on a WSN relay chain: a root
// beacon, then origins 3, 4 and 5 hand seq-numbered frames to relay 2,
// which forwards them to root 1 but drops one round in eight — so the
// forwarding watch matches and expires hand-offs and both watchdog
// modules read its report on every frame. The 64 frames replay as one
// endless stream, each pass re-stamped 100 ms after the last, so that
// every sliding window slides.
func BenchmarkKalisPerPacket(b *testing.B) {
	node, err := New(WithNodeID("K1"))
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	raws := [][]byte{stack.BuildCTPBeacon(1, 1, 0, 1)}
	for r := 0; len(raws) < 64; r++ {
		origin := uint16(3 + r%3)
		raws = append(raws, stack.BuildCTPData(origin, 2, origin, uint8(r), 0, 20, []byte{0x01, uint8(r)}))
		if r%8 != 7 && len(raws) < 64 {
			raws = append(raws, stack.BuildCTPData(2, 1, origin, uint8(r), 1, 10, []byte{0x01, uint8(r)}))
		}
	}
	var caps []*Captured
	for _, raw := range raws {
		c, err := stack.Decode(packet.MediumIEEE802154, raw)
		if err != nil {
			b.Fatal(err)
		}
		c.RSSI = -60 // a steady signal: no signal-strength knowledge churn
		caps = append(caps, c)
	}
	frame := 0
	handle := func() {
		c := caps[frame%len(caps)]
		c.Time = netsim.Epoch.Add(time.Duration(frame) * 100 * time.Millisecond)
		node.HandleCapture(c)
		frame++
	}
	// Past one 30 s forwarding window, so the watchdogs are active and
	// every window is full.
	for frame < 64*6 {
		handle()
	}
	active := strings.Join(node.ActiveModules(), ",")
	if !strings.Contains(active, "SelectiveForwardingModule") || !strings.Contains(active, "BlackholeModule") {
		b.Fatalf("watchdog modules inactive on the relay chain: %s", active)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle()
	}
}

// BenchmarkKalisThroughput measures aggregate packets/sec through the
// sharded ingestion pipeline at 1, 2 and 3 shards — every count a node
// builds — on a WiFi + 802.15.4 mix from 64 distinct sources. A shard
// owns whole media, so from shards=2 on both media have a busy worker
// of their own (at 3 the BLE shard is idle). shards=1 is the synchronous
// in-line dispatch path (single caller — the sync contract); shards>1
// enqueues from GOMAXPROCS parallel producers with lossless
// backpressure and drains before the clock stops, so ns/op covers
// capture-to-detector delivery of every packet. Scaling beyond 1x
// needs real cores: on a 1-CPU runner all shard counts collapse to
// roughly the shards=1 figure plus handoff overhead.
func BenchmarkKalisThroughput(b *testing.B) {
	mkCaps := func(b *testing.B) []*Captured {
		var caps []*Captured
		dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
		for i := 0; i < 256; i++ {
			// Alternating media, 32 distinct sources on each;
			// payload varies to defeat trivial dedup.
			medium, src := packet.MediumIEEE802154, uint16(2+i/2%32)
			raw := stack.BuildCTPData(src, 1, src, uint8(i), 0, 10, []byte{0x01, uint8(i)})
			if i%2 == 1 {
				medium = packet.MediumWiFi
				raw = stack.BuildUDP(netip.AddrFrom4([4]byte{10, 0, 0, byte(src)}), dst, 5683, 5683, uint16(i), []byte{0x01, uint8(i)})
			}
			c, err := stack.Decode(medium, raw)
			if err != nil {
				b.Fatal(err)
			}
			c.Time = netsim.Epoch.Add(time.Duration(i) * 10 * time.Millisecond)
			c.RSSI = -60 - float64(i%4)
			caps = append(caps, c)
		}
		return caps
	}
	for _, shards := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			node, err := New(WithNodeID("K1"), WithShards(shards), WithIngestBlocking())
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			caps := mkCaps(b)
			// Warm up knowledge-driven activation outside the timer.
			for i := 0; i < len(caps); i++ {
				node.HandleCapture(caps[i])
			}
			node.DrainIngest()
			b.ResetTimer()
			if shards <= 1 {
				for i := 0; i < b.N; i++ {
					node.HandleCapture(caps[i%len(caps)])
				}
			} else {
				var next atomic.Uint64
				b.RunParallel(func(pb *testing.PB) {
					// Stagger producers across the capture set so the
					// shard rings see all 64 sources concurrently.
					i := int(next.Add(1)-1) * 64
					for pb.Next() {
						node.HandleCapture(caps[i%len(caps)])
						i++
					}
				})
				node.DrainIngest()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
			if st := node.IngestStats(); shards > 1 && st.Dropped != 0 {
				b.Fatalf("blocking mode must not drop: %+v", st)
			}
		})
	}
}

// benchBomb panics on its first packet and stays quarantined for the
// rest of the run (every bench capture carries the same timestamp, so
// the backoff never elapses).
type benchBomb struct{ fired bool }

func (b *benchBomb) Name() string                  { return "bench-bomb" }
func (b *benchBomb) Kind() module.Kind             { return module.KindDetection }
func (b *benchBomb) WatchLabels() []string         { return nil }
func (b *benchBomb) Required(*knowledge.Base) bool { return true }
func (b *benchBomb) Activate(*ModuleContext)       {}
func (b *benchBomb) Deactivate()                   {}
func (b *benchBomb) HandlePacket(*packet.Captured) {
	if !b.fired {
		b.fired = true
		panic("bench: first packet")
	}
}

// BenchmarkKalisPerPacketSupervised measures the steady-state
// per-packet cost with the module supervisor actively engaged: one
// installed module panics on the first packet and is quarantined, so
// every subsequent packet pays the supervisor's revival scan on top of
// the healthy dispatch path. The benchdiff gate on this bench bounds
// the supervision overhead (acceptance: ≤25% over the unsupervised
// baseline, target ≲5%).
func BenchmarkKalisPerPacketSupervised(b *testing.B) {
	node, err := New(WithNodeID("K1"))
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	node.RegisterModule("bench-bomb", func(map[string]string) (Module, error) {
		return &benchBomb{}, nil
	})
	if err := node.InstallModule("bench-bomb", nil); err != nil {
		b.Fatal(err)
	}
	var caps []*Captured
	for i := 0; i < 64; i++ {
		raw := stack.BuildCTPData(uint16(2+i%4), 1, uint16(2+i%4), uint8(i), 0, 10, []byte{0x01, uint8(i)})
		c, err := stack.Decode(packet.MediumIEEE802154, raw)
		if err != nil {
			b.Fatal(err)
		}
		// A fixed timestamp keeps the quarantine backoff from elapsing:
		// the supervisor scans for revival on every packet, the
		// worst-case degraded steady state.
		c.Time = netsim.Epoch
		c.RSSI = -60 - float64(i%4)
		caps = append(caps, c)
	}
	node.HandleCapture(caps[0]) // detonate: bench-bomb panics, is quarantined
	if q := node.QuarantinedModules(); len(q) != 1 || q[0] != "bench-bomb" {
		b.Fatalf("quarantined = %v (want [bench-bomb])", q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.HandleCapture(caps[i%len(caps)])
	}
}

// sanity keeps the bench file honest if scenario names drift.
func TestBenchScenarioNamesExist(t *testing.T) {
	for _, name := range []string{"icmp-flood", "replication", "selective-forwarding"} {
		if _, ok := eval.ScenarioByName(name); !ok {
			t.Errorf("scenario %q not found", name)
		}
	}
	if !strings.Contains(snortlike.CustomRules, "sid:1000001") {
		t.Error("custom rules drifted")
	}
}
