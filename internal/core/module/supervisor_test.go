package module

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// bombModule panics on HandlePacket while armed.
type bombModule struct {
	fakeModule
	armed bool
}

func (b *bombModule) HandlePacket(c *packet.Captured) {
	b.packets++
	if b.armed {
		panic("crafted frame")
	}
}

// wireSupervisorMetrics attaches a fresh registry's supervisor metrics
// and returns the registry for assertions.
func wireSupervisorMetrics(m *Manager) *telemetry.Registry {
	tel := telemetry.NewRegistry()
	m.SetMetrics(ManagerMetrics{
		Packets:       tel.Counter("kalis_packets_total", "t"),
		PacketLatency: tel.HistogramVec("kalis_module_packet_seconds", "module", "t", nil),
		Panics:        tel.CounterVec("kalis_module_panics_total", "module", "t"),
	})
	return tel
}

func pktAt(sec int64) *packet.Captured {
	return &packet.Captured{Time: time.Unix(sec, 0), Kind: packet.KindUDP}
}

// backoffSec is QuarantineBackoff in whole seconds of capture time.
const backoffSec = int64(QuarantineBackoff / time.Second)

// feedClean hands the manager n packets captured at sec.
func feedClean(m *Manager, n int, sec int64) {
	for i := 0; i < n; i++ {
		m.HandlePacket(pktAt(sec))
	}
}

func TestPanicQuarantineProbationReadmission(t *testing.T) {
	m, _ := newTestManager(true)
	bomb := &bombModule{fakeModule: fakeModule{name: "bomb", kind: KindDetection}}
	good := &fakeModule{name: "good", kind: KindSensing}
	m.Install(bomb, nil)
	m.Install(good, nil)
	wireSupervisorMetrics(m)

	// The panic is contained: the node keeps running, the offender is
	// quarantined, the healthy module still sees traffic.
	bomb.armed = true
	m.HandlePacket(pktAt(100))
	if got := m.Quarantined(); len(got) != 1 || got[0] != "bomb" {
		t.Fatalf("Quarantined = %v", got)
	}
	if h := m.Health(); h["bomb"] != "quarantined" || h["good"] != "healthy" {
		t.Fatalf("Health = %v", h)
	}
	if m.LastPanic("bomb") != "crafted frame" {
		t.Errorf("LastPanic = %q", m.LastPanic("bomb"))
	}
	bomb.armed = false
	m.HandlePacket(pktAt(101))
	if bomb.packets != 1 {
		t.Fatalf("quarantined module saw traffic: %d packets", bomb.packets)
	}
	if good.packets != 2 {
		t.Fatalf("healthy module starved: %d packets", good.packets)
	}

	// Backoff elapses on the virtual capture clock: the module returns
	// on probation and is fully re-admitted after clean probes.
	m.HandlePacket(pktAt(100 + backoffSec)) // revival scan flips to probing, probe 1
	if h := m.Health(); h["bomb"] != "probing" {
		t.Fatalf("Health after backoff = %v", h)
	}
	feedClean(m, ProbePackets-2, 100+backoffSec)
	if h := m.Health(); h["bomb"] != "probing" {
		t.Fatalf("Health one probe short = %v", h)
	}
	m.HandlePacket(pktAt(101 + backoffSec)) // last probe
	if h := m.Health(); h["bomb"] != "healthy" {
		t.Fatalf("Health after probes = %v", h)
	}
	if got := m.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined after re-admission = %v", got)
	}
	if bomb.packets != 1+ProbePackets {
		t.Errorf("re-admitted module packets = %d", bomb.packets)
	}
}

// TestHealthPublishedAsCollectiveKnowggets checks that every supervisor
// transition lands in the Knowledge Base as a ModuleHealth.<name>
// collective knowgget, so peer Kalis nodes can correlate module crashes
// across the network.
func TestHealthPublishedAsCollectiveKnowggets(t *testing.T) {
	m, kb := newTestManager(true)
	var mu sync.Mutex
	var synced []knowledge.Knowgget
	kb.SetSync(func(k knowledge.Knowgget) {
		mu.Lock()
		synced = append(synced, k)
		mu.Unlock()
	})
	bomb := &bombModule{fakeModule: fakeModule{name: "bomb", kind: KindDetection}}
	m.Install(bomb, nil)
	wireSupervisorMetrics(m)

	health := func() string {
		v, _ := kb.Value("ModuleHealth.bomb")
		return v
	}

	bomb.armed = true
	m.HandlePacket(pktAt(100))
	if got := health(); got != "quarantined" {
		t.Fatalf("ModuleHealth.bomb after panic = %q, want quarantined", got)
	}

	bomb.armed = false
	m.HandlePacket(pktAt(100 + backoffSec)) // backoff elapsed: probation
	if got := health(); got != "probing" {
		t.Fatalf("ModuleHealth.bomb after backoff = %q, want probing", got)
	}
	feedClean(m, ProbePackets-1, 101+backoffSec) // clean probes: re-admitted
	if got := health(); got != "healthy" {
		t.Fatalf("ModuleHealth.bomb after probe = %q, want healthy", got)
	}

	// The knowggets are collective: each transition reached the peer
	// synchronization hook.
	mu.Lock()
	defer mu.Unlock()
	var states []string
	for _, k := range synced {
		if k.Label != "ModuleHealth.bomb" {
			continue
		}
		if !k.Collective {
			t.Errorf("ModuleHealth knowgget not marked collective: %+v", k)
		}
		states = append(states, k.Value)
	}
	want := []string{"quarantined", "probing", "healthy"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Errorf("synced health states = %v, want %v", states, want)
	}
}

func TestQuarantineBackoffDoublesAndCaps(t *testing.T) {
	m, _ := newTestManager(true)
	bomb := &bombModule{fakeModule: fakeModule{name: "bomb", kind: KindDetection}, armed: true}
	m.Install(bomb, nil)
	wireSupervisorMetrics(m)

	// Backoff after strike n, in seconds: 5 · 2^(n-1), capped at 5 min.
	backoffs := []int64{5, 10, 20, 40, 80, 160, 300, 300}
	var at int64
	m.HandlePacket(pktAt(at)) // strike 1
	for i, d := range backoffs {
		m.HandlePacket(pktAt(at + d - 1)) // one second short: still out
		if bomb.packets != i+1 {
			t.Fatalf("strike %d: dispatched %ds into a %ds backoff", i+1, d-1, d)
		}
		if i == len(backoffs)-1 {
			bomb.armed = false
		}
		at += d
		m.HandlePacket(pktAt(at)) // probing: panics again, or the first clean probe
	}
	if h := m.Health(); h["bomb"] != "probing" {
		t.Fatalf("Health after the capped backoff = %v", h)
	}
	feedClean(m, ProbePackets-1, at)
	if h := m.Health(); h["bomb"] != "healthy" {
		t.Fatalf("Health = %v", h)
	}
}

func TestActivationPanicQuarantines(t *testing.T) {
	m, _ := newTestManager(true)
	bad := &activateBomb{fakeModule{name: "bad", kind: KindDetection}}
	m.Install(bad, nil)
	wireSupervisorMetrics(m)
	if h := m.Health(); h["bad"] != "quarantined" {
		t.Fatalf("Health after Activate panic = %v", h)
	}
	if m.LastPanic("bad") != "bad wiring" {
		t.Errorf("LastPanic = %q", m.LastPanic("bad"))
	}
	// Quarantined before the shard saw a packet: the backoff starts at
	// the first one.
	m.HandlePacket(pktAt(100))
	m.HandlePacket(pktAt(100 + backoffSec - 1))
	if h := m.Health(); h["bad"] != "quarantined" || bad.packets != 0 {
		t.Fatalf("Health = %v, %d packets dispatched inside the backoff", h, bad.packets)
	}
}

// knowledgeBomb panics on every knowgget it is handed while armed.
type knowledgeBomb struct {
	bombModule
}

func (k *knowledgeBomb) KnowledgeLabels() []string { return []string{"Evidence"} }
func (k *knowledgeBomb) HandleKnowledge(knowledge.Knowgget) {
	if k.armed {
		panic("crafted knowgget")
	}
}

// TestKnowledgePanicWaitsOutItsBackoff: a panic in HandleKnowledge
// quarantines on the shard's capture clock — the last packet's time —
// so the module sits out the same backoff as after a panic in
// HandlePacket.
func TestKnowledgePanicWaitsOutItsBackoff(t *testing.T) {
	m, kb := newTestManager(true)
	bomb := &knowledgeBomb{bombModule{fakeModule: fakeModule{name: "bomb", kind: KindDetection}}}
	m.Install(bomb, nil)
	wireSupervisorMetrics(m)

	m.HandlePacket(pktAt(100))
	bomb.armed = true
	kb.PutInt("Evidence", 1) // the shard is idle: handed over, and panics, here
	bomb.armed = false
	if h := m.Health(); h["bomb"] != "quarantined" || m.LastPanic("bomb") != "crafted knowgget" {
		t.Fatalf("Health after the panic = %v (last panic %q)", h, m.LastPanic("bomb"))
	}
	m.HandlePacket(pktAt(101))
	m.HandlePacket(pktAt(100 + backoffSec - 1))
	if h := m.Health(); h["bomb"] != "quarantined" || bomb.packets != 1 {
		t.Fatalf("Health = %v, %d packets: the backoff did not run from t=100s", h, bomb.packets)
	}
	m.HandlePacket(pktAt(100 + backoffSec))
	if h := m.Health(); h["bomb"] != "probing" || bomb.packets != 2 {
		t.Fatalf("Health after the backoff = %v, %d packets", h, bomb.packets)
	}
}

type activateBomb struct{ fakeModule }

func (a *activateBomb) Activate(*Context) { panic("bad wiring") }

// churnModule keeps unguarded state: it is the manager's job that the
// -race detector sees no Activate/Deactivate vs HandlePacket overlap.
type churnModule struct {
	active  bool
	packets int
}

func (c *churnModule) Name() string          { return "churn" }
func (c *churnModule) Kind() Kind            { return KindDetection }
func (c *churnModule) WatchLabels() []string { return []string{"Multihop"} }
func (c *churnModule) Required(kb *knowledge.Base) bool {
	v, ok := kb.Bool("Multihop")
	return ok && v
}
func (c *churnModule) Activate(*Context)             { c.active = true }
func (c *churnModule) Deactivate()                   { c.active = false }
func (c *churnModule) HandlePacket(*packet.Captured) { c.packets++ }

// TestActivationChurnUnderTraffic is the regression test for the
// activation-transition race: two goroutines flip a watched label while
// packets flow, and the module's last-applied transition must match the
// final knowledge state (no stale Context, no interleaved
// Activate/Deactivate), with the race detector watching a module that
// does not defend itself.
func TestActivationChurnUnderTraffic(t *testing.T) {
	m, kb := newTestManager(true)
	mod := &churnModule{}
	m.Install(mod, nil)
	wireSupervisorMetrics(m)

	const flips = 400
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			kb.PutBool("Multihop", i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			kb.PutBool("Multihop", i%2 == 1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			m.HandlePacket(pktAt(int64(i)))
		}
	}()
	wg.Wait()

	// Settle on a known final state: the shard is idle, so each Put is
	// applied before it returns, and reading the module here is ordered
	// after the manager's last call into it by the token.
	kb.PutBool("Multihop", true)
	if got := m.Active(); len(got) != 1 || got[0] != "churn" {
		t.Fatalf("Active = %v", got)
	}
	if !mod.active {
		t.Fatal("module last-called with Deactivate despite knowledge wanting it active")
	}

	kb.PutBool("Multihop", false)
	if got := m.Active(); len(got) != 0 {
		t.Fatalf("Active = %v", got)
	}
	if mod.active {
		t.Fatal("module last-called with Activate despite knowledge wanting it inactive")
	}
}
