package core

import (
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
)

// These tests pin "a module has one caller": whatever the executor and
// whichever goroutine stores the knowledge, a shard's modules are
// entered by one goroutine at a time. They are written to be run under
// -race (CI's "Sharded ingest ordering" step and `make race`), where
// they fail at the commit before the dispatch token existed.

// wormholeFrames builds n CTP data frames in which eight relays forward
// traffic of origins they were never handed — emergent sources, the
// Wormhole module's per-packet map work.
func wormholeFrames(t *testing.T, from, n int) []*packet.Captured {
	frames := make([]*packet.Captured, n)
	for j := range frames {
		i := from + j
		raw := stack.BuildCTPData(uint16(9+i%8), 1, uint16(20+i%5), uint8(i), 2, 10, []byte{0x01, uint8(i)})
		frames[j] = mkCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(i)*100*time.Millisecond), -60)
	}
	return frames
}

// withPings follows every frame with a WiFi ping captured at the same
// time, so that a node with more than one shard dispatches on two:
// 802.15.4 on the first, WiFi on the second.
func withPings(t *testing.T, frames []*packet.Captured) []*packet.Captured {
	out := make([]*packet.Captured, 0, 2*len(frames))
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i, c := range frames {
		src := netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i%8)})
		raw := stack.BuildICMPEcho(src, dst, icmp.TypeEchoRequest, 1, uint16(i), 64)
		out = append(out, c, mkCap(t, packet.MediumWiFi, raw, c.Time, -60))
	}
	return out
}

// gossipSuspicions plays the collective receive loop: n blackhole
// suspicions from peer K2 about relay 0x0005, each a changed value (so
// each is handed to the subscribers), all naming every origin the
// frames carry, so that the tests pin one caller at a time and the
// knowledge reaching the module, not which origins the Wormhole module
// has published by the time a suspicion arrives.
func gossipSuspicions(kb *knowledge.Base, n int) {
	for i := 0; i < n; i++ {
		kb.AcceptGossip("K2", knowledge.Knowgget{
			Label: knowledge.LabelSuspectBlackhole, Entity: "0x0005", Creator: "K2",
			Value: "20,21,22,23,24," + strconv.Itoa(100+i%7), Version: uint64(i + 1),
		})
	}
}

// wsnNode builds a node with the full library on a network known to be
// multi-hop 802.15.4, so that Wormhole (and the rest of the WSN
// detectors) are active from the first frame.
func wsnNode(t *testing.T, cfg Config) *Kalis {
	t.Helper()
	cfg.NodeID, cfg.KnowledgeDriven, cfg.InstallAll = "K1", true, true
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.KB().Put(knowledge.LabelMediums+"."+packet.MediumIEEE802154.String(), "true")
	k.KB().PutBool(knowledge.LabelMultihop, true)
	if !contains(k.ActiveModules(), "WormholeModule") {
		t.Fatalf("Wormhole inactive on a multi-hop 802.15.4 network: %v", k.ActiveModules())
	}
	return k
}

// expectWormhole checks that the gossiped suspicion met a locally seen
// emergent source: the knowledge did reach the module.
func expectWormhole(t *testing.T, k *Kalis) {
	t.Helper()
	if q := k.QuarantinedModules(); len(q) != 0 {
		t.Errorf("quarantined modules: %v (%s)", q, k.LastPanic(q[0]))
	}
	for _, a := range k.Alerts() {
		if a.Attack == attack.Wormhole && a.Suspects[0] == "0x0005" {
			return
		}
	}
	t.Errorf("no wormhole alert naming the gossiped blackhole 0x0005 among %d alerts", len(k.Alerts()))
}

// TestGossipWhileCapturing is the §VI-D deployment on a default node:
// the capture goroutine is inside HandleCapture while the transport's
// receive loop accepts peer knowledge the Wormhole module consumes.
func TestGossipWhileCapturing(t *testing.T) {
	const n = 20000
	k := wsnNode(t, Config{})
	defer k.Close()
	frames := wormholeFrames(t, 0, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, c := range frames {
			k.HandleCapture(c)
		}
	}()
	go func() {
		defer wg.Done()
		gossipSuspicions(k.KB(), n)
	}()
	wg.Wait()
	if p, _, _ := k.Stats(); p != n {
		t.Errorf("%d packets dispatched, want %d", p, n)
	}
	expectWormhole(t, k)
}

// labelFlipper is a module that flips the Mobility label from inside
// HandlePacket every period packets: every shard's ReplicationStatic and
// ReplicationMobile instances change places on a knowgget one shard's
// worker stored.
type labelFlipper struct {
	kb      *knowledge.Base
	period  int
	packets int
}

func (*labelFlipper) Name() string                  { return "flipper" }
func (*labelFlipper) Kind() module.Kind             { return module.KindSensing }
func (*labelFlipper) WatchLabels() []string         { return nil }
func (*labelFlipper) Required(*knowledge.Base) bool { return true }
func (f *labelFlipper) Activate(ctx *module.Context) {
	f.kb = ctx.KB
}
func (*labelFlipper) Deactivate() {}
func (f *labelFlipper) HandlePacket(*packet.Captured) {
	f.packets++
	if f.packets%f.period == 0 {
		f.kb.PutBool(knowledge.LabelMobility, f.packets/f.period%2 == 0)
	}
}

// TestShardedKnowledgeFlipsWhileCapturing: the same traffic, with a
// WiFi ping beside every frame, and gossip over a node asked for four
// shards (it builds three, two of them busy), plus a label flip written
// from inside a shard's module.
func TestShardedKnowledgeFlipsWhileCapturing(t *testing.T) {
	const n = 20000
	k := wsnNode(t, Config{Shards: 4, IngestBlock: true})
	defer k.Close()
	k.Registry().Register("flipper", func(map[string]string) (module.Module, error) {
		return &labelFlipper{period: 25}, nil
	})
	if err := k.Install("flipper", nil); err != nil {
		t.Fatal(err)
	}
	frames := withPings(t, wormholeFrames(t, 0, n))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gossipSuspicions(k.KB(), n)
	}()
	for _, c := range frames {
		k.HandleCapture(c)
	}
	wg.Wait()
	k.DrainIngest()
	p, _, activations := k.Stats()
	if p != uint64(len(frames)) {
		t.Errorf("%d packets dispatched, want %d", p, len(frames))
	}
	for i, s := range k.shards[:2] {
		if sp, _, _ := s.manager.Stats(); sp != n {
			t.Errorf("shard %d dispatched %d packets, want %d (one medium each)", i, sp, n)
		}
	}
	if activations < 100 {
		t.Errorf("%d activation transitions: the Mobility flips did not reach the shards", activations)
	}
	expectWormhole(t, k)
}

// soloModule counts the goroutines inside it. It watches SoloWanted and
// listens to SoloNews.
type soloModule struct {
	inside                      atomic.Int32
	overlaps                    *atomic.Int64
	activations, packets, heard atomic.Int64
	active                      bool
}

func (s *soloModule) enter() {
	if s.inside.Add(1) != 1 {
		s.overlaps.Add(1)
	}
	runtime.Gosched() // widen the window another caller would fall into
}
func (s *soloModule) leave() { s.inside.Add(-1) }

func (*soloModule) Name() string              { return "solo" }
func (*soloModule) Kind() module.Kind         { return module.KindDetection }
func (*soloModule) WatchLabels() []string     { return []string{"SoloWanted"} }
func (*soloModule) KnowledgeLabels() []string { return []string{"SoloNews"} }
func (*soloModule) Required(kb *knowledge.Base) bool {
	v, _ := kb.Bool("SoloWanted")
	return v
}
func (s *soloModule) Activate(*module.Context) {
	s.enter()
	defer s.leave()
	s.activations.Add(1)
	if s.active {
		s.overlaps.Add(1) // Activate twice in a row
	}
	s.active = true
}
func (s *soloModule) Deactivate() {
	s.enter()
	defer s.leave()
	if !s.active {
		s.overlaps.Add(1)
	}
	s.active = false
}
func (s *soloModule) HandlePacket(*packet.Captured) {
	s.enter()
	defer s.leave()
	s.packets.Add(1)
	if !s.active {
		s.overlaps.Add(1) // a packet outside Activate..Deactivate
	}
}
func (s *soloModule) HandleKnowledge(knowledge.Knowgget) {
	s.enter()
	defer s.leave()
	s.heard.Add(1)
	if !s.active {
		s.overlaps.Add(1)
	}
}

// soloDriver stores the knowledge soloModule reacts to: a piece of news
// per step and a flip of SoloWanted every eighth.
func soloDriver(kb *knowledge.Base, step int) {
	kb.PutInt("SoloNews", step)
	if step%8 == 0 {
		kb.PutBool("SoloWanted", step/8%2 == 0)
	}
}

// driverModule runs soloDriver from inside HandlePacket.
type driverModule struct {
	labelFlipper
}

func (*driverModule) Name() string { return "driver" }
func (d *driverModule) HandlePacket(*packet.Captured) {
	d.packets++
	soloDriver(d.kb, d.packets)
}

// TestModuleHasOneCaller runs soloModule on every executor while the
// knowledge it depends on changes from a module, from a foreign
// goroutine, and while it is being installed mid-traffic: nothing may
// ever find another goroutine, or the wrong activation state, inside.
func TestModuleHasOneCaller(t *testing.T) {
	const n = 4000
	executors := []struct {
		name string
		cfg  Config
	}{
		{"inline", Config{}},
		{"async", Config{Async: true, IngestBlock: true}},
		{"2shards", Config{Shards: 2, IngestBlock: true}},
	}
	for _, ex := range executors {
		for _, source := range []string{"module", "foreign", "install"} {
			t.Run(ex.name+"/"+source, func(t *testing.T) {
				cfg := ex.cfg
				cfg.NodeID, cfg.KnowledgeDriven, cfg.ConfigText = "K1", true, sensingOnly
				k, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer k.Close()
				var overlaps atomic.Int64
				var mu sync.Mutex
				var solos []*soloModule
				k.Registry().Register("solo", func(map[string]string) (module.Module, error) {
					s := &soloModule{overlaps: &overlaps}
					mu.Lock()
					solos = append(solos, s)
					mu.Unlock()
					return s, nil
				})
				k.Registry().Register("driver", func(map[string]string) (module.Module, error) {
					return &driverModule{}, nil
				})
				install := func(name string) {
					if err := k.Install(name, nil); err != nil {
						t.Error(err)
					}
				}
				if source != "install" {
					install("solo")
				}
				if source == "module" {
					install("driver")
				}
				// The foreign writer keeps storing knowledge for as long as
				// frames are being captured, a few knowggets per frame: like
				// gossip, it is paced by something other than the shard it
				// writes to (a busy shard's inbox has no bound of its own).
				done, stopped := make(chan struct{}), make(chan struct{})
				var fed atomic.Int64
				go func() {
					defer close(stopped)
					for step := 1; source != "module"; step++ {
						for int64(step) > 64+4*fed.Load() {
							select {
							case <-done:
								return
							default:
								runtime.Gosched()
							}
						}
						if source == "install" && step == 64 {
							install("solo")
						}
						soloDriver(k.KB(), step)
					}
				}()
				// Traffic flows until every instance has been through each
				// entry point (a fast executor can finish a round inside one
				// of the writer's inactive spells).
				covered := func() bool {
					mu.Lock()
					defer mu.Unlock()
					for _, s := range solos {
						if s.activations.Load() == 0 || s.packets.Load() == 0 || s.heard.Load() == 0 {
							return false
						}
					}
					return len(solos) == k.Shards()
				}
				for round := 0; round < 100 && (round == 0 || !covered()); round++ {
					for _, c := range withPings(t, wormholeFrames(t, round*n, n)) {
						k.HandleCapture(c)
						fed.Add(1)
					}
					k.DrainIngest()
				}
				close(done)
				<-stopped

				if got := overlaps.Load(); got != 0 {
					t.Errorf("%d entries found another caller, or the wrong activation state, inside the module", got)
				}
				if !covered() {
					for i, s := range solos {
						t.Errorf("instance %d of %d shards: %d activations, %d packets, %d knowggets: an entry point never ran",
							i, k.Shards(), s.activations.Load(), s.packets.Load(), s.heard.Load())
					}
				}
			})
		}
	}
}
