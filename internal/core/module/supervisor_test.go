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
		BreakerTrips:  tel.Counter("kalis_breaker_trips_total", "t"),
	})
	return tel
}

func pktAt(sec int64) *packet.Captured {
	return &packet.Captured{Time: time.Unix(sec, 0), Kind: packet.KindUDP}
}

func TestPanicQuarantineProbationReadmission(t *testing.T) {
	m, _ := newTestManager(true)
	bomb := &bombModule{fakeModule: fakeModule{name: "bomb", kind: KindDetection}}
	good := &fakeModule{name: "good", kind: KindSensing}
	m.Install(bomb, nil)
	m.Install(good, nil)
	wireSupervisorMetrics(m)
	m.SetSupervisor(SupervisorConfig{
		Backoff:      10 * time.Second,
		MaxBackoff:   40 * time.Second,
		ProbePackets: 2,
	})

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
	m.HandlePacket(pktAt(110)) // revival scan flips to probing, probe 1/2
	if h := m.Health(); h["bomb"] != "probing" {
		t.Fatalf("Health after backoff = %v", h)
	}
	m.HandlePacket(pktAt(111)) // probe 2/2
	if h := m.Health(); h["bomb"] != "healthy" {
		t.Fatalf("Health after probes = %v", h)
	}
	if got := m.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined after re-admission = %v", got)
	}
	if bomb.packets != 3 {
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
	m.SetSupervisor(SupervisorConfig{
		Backoff:      10 * time.Second,
		MaxBackoff:   40 * time.Second,
		ProbePackets: 2,
	})

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
	m.HandlePacket(pktAt(110)) // backoff elapsed: probation
	if got := health(); got != "probing" {
		t.Fatalf("ModuleHealth.bomb after backoff = %q, want probing", got)
	}
	m.HandlePacket(pktAt(111)) // clean probe: re-admitted
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
	m.SetSupervisor(SupervisorConfig{
		Backoff:      10 * time.Second,
		MaxBackoff:   15 * time.Second,
		ProbePackets: 1,
	})

	m.HandlePacket(pktAt(0)) // strike 1: backoff 10s, until t=10
	m.HandlePacket(pktAt(5)) // still quarantined
	if bomb.packets != 1 {
		t.Fatalf("dispatched during backoff: %d", bomb.packets)
	}
	m.HandlePacket(pktAt(10)) // probing; panics again → strike 2, capped 15s, until t=25
	if h := m.Health(); h["bomb"] != "quarantined" {
		t.Fatalf("Health = %v", h)
	}
	m.HandlePacket(pktAt(20)) // 10s later: doubled backoff not yet elapsed
	if bomb.packets != 2 {
		t.Fatalf("re-dispatched before doubled backoff: %d", bomb.packets)
	}
	bomb.armed = false
	m.HandlePacket(pktAt(25)) // capped backoff elapsed; clean probe re-admits
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
}

type activateBomb struct{ fakeModule }

func (a *activateBomb) Activate(*Context) { panic("bad wiring") }

// breakerFixture is a manager with one always-active module, a zero
// latency budget (any observed invocation is over budget), a two-strike
// breaker and a queue-pressure hook reading *pressure. feed hands it n
// packets one at a time, all captured at the given second.
func breakerFixture(window int) (m *Manager, slow *fakeModule, tel *telemetry.Registry, pressure *int, feed func(n int, sec int64)) {
	m, _ = newTestManager(true)
	slow = &fakeModule{name: "slow", kind: KindDetection}
	m.Install(slow, nil)
	tel = wireSupervisorMetrics(m)
	pressure = new(int)
	*pressure = 1000
	m.SetPressure(func() int { return *pressure })
	m.SetSupervisor(SupervisorConfig{
		BreakerBudget:     0,
		BreakerWindow:     window,
		BreakerStrikes:    2,
		PressureThreshold: 512,
		ShedBackoff:       30 * time.Second,
	})
	feed = func(n int, sec int64) {
		for i := 0; i < n; i++ {
			m.HandlePacket(pktAt(sec))
		}
	}
	return
}

// The breaker reads the sampled latency histogram: one packet of every
// block of sampleStride is timed, at an offset that moves from block to
// block. A window is evaluated on the packet that completes it, before
// that packet is dispatched, so a window of two blocks always holds an
// observation (the first block's) and the tests below size theirs so.
func TestBreakerShedsUnderPressureAndReadmits(t *testing.T) {
	const window = 2 * sampleStride
	m, slow, tel, pressure, feed := breakerFixture(window)

	// The first two windows are both over budget → trip when the second
	// one closes.
	feed(2*window-1, 0)
	if h := m.Health(); h["slow"] != "healthy" {
		t.Fatalf("Health before the second window closed = %v", h)
	}
	feed(1, 0)
	if h := m.Health(); h["slow"] != "shed" {
		t.Fatalf("Health = %v (want shed)", h)
	}
	if got := slow.packets; got != 2*window-1 {
		t.Fatalf("packets before shed = %d", got)
	}
	snap := tel.Snapshot()
	if v := snap["kalis_breaker_trips_total"].Value; fmt.Sprint(v) != "1" {
		t.Errorf("kalis_breaker_trips_total = %v", v)
	}
	if q := m.Quarantined(); len(q) != 1 || q[0] != "slow" {
		t.Errorf("Quarantined = %v", q)
	}

	// Backoff elapsed but the queue is still saturated: stay shed.
	feed(1, 40)
	if h := m.Health(); h["slow"] != "shed" {
		t.Fatalf("re-admitted under pressure: %v", h)
	}

	// Pressure subsides and the extended backoff elapses: the same
	// packet that triggers the revival scan is dispatched to the
	// re-admitted module.
	*pressure = 0
	feed(1, 80)
	if h := m.Health(); h["slow"] != "healthy" {
		t.Fatalf("Health after heal = %v", h)
	}
	feed(1, 81)
	if slow.packets != 2*window+1 {
		t.Errorf("packets after re-admission = %d", slow.packets)
	}
}

// TestBreakerCountsObservedWindows: a window in which no packet was
// timed says nothing about the module, so it neither adds a strike nor
// clears one — a BreakerWindow shorter than a timing block still trips
// after BreakerStrikes over-budget windows that held an observation,
// with empty windows in between.
func TestBreakerCountsObservedWindows(t *testing.T) {
	const window = sampleStride / 4
	m, _, _, _, feed := breakerFixture(window)

	// Block 0 has one timed packet (packet 0), in the first of its four
	// windows: strike one, then three empty windows.
	feed(sampleStride, 0)
	if h := m.Health(); h["slow"] != "healthy" {
		t.Fatalf("Health after one observed over-budget window = %v", h)
	}
	// Block 1's timed packet, wherever it falls, has been seen by the
	// time the window after the block closes: strike two.
	feed(sampleStride+window, 0)
	if h := m.Health(); h["slow"] != "shed" {
		t.Fatalf("Health after two observed over-budget windows = %v (want shed)", h)
	}
}

// TestBreakerStrikesClearWhenPressureSubsides: a window evaluated
// without queue pressure resets the strikes, so the count starts over
// when pressure returns.
func TestBreakerStrikesClearWhenPressureSubsides(t *testing.T) {
	const window = 2 * sampleStride
	m, _, _, pressure, feed := breakerFixture(window)

	feed(window, 0) // window 1: over budget under pressure, strike one
	*pressure = 0
	feed(window, 0) // window 2: no pressure, strikes cleared
	*pressure = 1000
	feed(window, 0) // window 3: strike one again, not two
	if h := m.Health(); h["slow"] != "healthy" {
		t.Fatalf("Health = %v: strikes survived a window without pressure", h)
	}
	feed(window, 0) // window 4: strike two
	if h := m.Health(); h["slow"] != "shed" {
		t.Fatalf("Health = %v (want shed)", h)
	}
}

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
