package kalis

// Chaos scenario: the ISSUE's scripted resilience drill. From one fixed
// seed, a fault scenario partitions the collective link, detonates a
// detection module mid-traffic, and bursts knowledge changes and alerts
// at a lagging consumer — then the test asserts the pipeline degraded
// exactly as designed and fully recovered, with every transition
// visible in a real HTTP telemetry scrape:
//
//   - the panicking module is quarantined, probed and re-admitted
//     (kalis_module_panics_total, kalis_module_quarantined);
//   - the silent peer is evicted on TTL and fully re-synced on heal
//     (kalis_collective_peer_evictions_total);
//   - a transient send failure is retried, not dropped
//     (kalis_collective_send_retries_total);
//   - every knowledge change and every alert of a burst reaches its
//     consumer, and the ingest ring — the node's only queue — accounts
//     for every capture (kalis_bus_publishes_total, IngestStats);
//   - every injected fault is counted (kalis_fault_injected_total).

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/core"
	"kalis/internal/core/collective"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/fault"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// chaosBomb is a detection module that panics on every packet while
// armed — the crafted-frame crash the supervisor must contain — and
// raises an alert on every packet while alerting.
type chaosBomb struct {
	armed, alerting atomic.Bool
	emit            func(module.Alert)
}

func (b *chaosBomb) Name() string                  { return "chaos-bomb" }
func (b *chaosBomb) Kind() module.Kind             { return module.KindDetection }
func (b *chaosBomb) WatchLabels() []string         { return nil }
func (b *chaosBomb) Required(*knowledge.Base) bool { return true }
func (b *chaosBomb) Activate(ctx *module.Context)  { b.emit = ctx.Emit }
func (b *chaosBomb) Deactivate()                   {}
func (b *chaosBomb) HandlePacket(c *packet.Captured) {
	if b.armed.Load() {
		panic("chaos: crafted frame")
	}
	if b.alerting.Load() {
		b.emit(module.Alert{Attack: "chaos-burst", Time: c.Time})
	}
}

// flakyOnce wraps a collective transport and fails the first unicast
// send with a transient error, so the retry policy has something real
// to recover from.
type flakyOnce struct {
	collective.Transport
	failed atomic.Bool
}

func (f *flakyOnce) Send(addr string, data []byte) error {
	if f.failed.CompareAndSwap(false, true) {
		return errors.New("chaos: transient link glitch")
	}
	return f.Transport.Send(addr, data)
}

// virtualClock drives the collective liveness machinery without wall
// time.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// waitFor polls cond until it holds or the deadline passes. The chaos
// node dispatches on a ring worker, so state changes land shortly after
// HandleCapture returns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape performs one HTTP scrape of the node's telemetry handler and
// returns the Prometheus text body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample's value from a Prometheus text body.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("sample %q not found in scrape", sample)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q: %v", sample, err)
	}
	return v
}

func TestChaosScenario(t *testing.T) {
	const seed = 42

	// --- assembly ---------------------------------------------------
	k1, err := core.New(core.Config{NodeID: "K1", KnowledgeDriven: true, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k1.Close()
	k2, err := core.New(core.Config{NodeID: "K2", KnowledgeDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()

	bomb := &chaosBomb{}
	k1.Registry().Register("chaos-bomb", func(map[string]string) (module.Module, error) {
		return bomb, nil
	})
	if err := k1.Install("chaos-bomb", nil); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(seed)
	inj.SetMetrics(fault.Metrics{
		Injected: k1.Telemetry().CounterVec("kalis_fault_injected_total", "kind",
			"Faults injected by the chaos harness, by kind."),
	})

	hub := collective.NewHub()
	flaky := &flakyOnce{Transport: hub.Endpoint("addr1")}
	ft1 := inj.WrapTransport(flaky, fault.LinkFaults{})
	if err := k1.EnableCollective(ft1, "chaos-secret"); err != nil {
		t.Fatal(err)
	}
	if err := k2.EnableCollective(hub.Endpoint("addr2"), "chaos-secret"); err != nil {
		t.Fatal(err)
	}
	clock := &virtualClock{t: netsim.Epoch}
	for _, n := range []*collective.Node{k1.Collective(), k2.Collective()} {
		n.SetClock(clock.now)
		n.SetPeerTTL(30 * time.Second)
		n.SetRetry(2, time.Millisecond)
	}

	// Pre-discovery collective knowledge gives k1's discovery sync a
	// payload; its first unicast hits the flaky link — exercising retry.
	k1.KB().PutCollective("EmergentSource", "0x0001", "1")
	k1.Collective().Beacon()
	k2.Collective().Beacon()
	if len(k1.Collective().Peers()) != 1 || len(k2.Collective().Peers()) != 1 {
		t.Fatal("collective discovery failed")
	}
	if _, retries, _ := k1.Collective().Resilience(); retries == 0 {
		t.Fatal("transient send failure was not retried")
	}

	raw := stack.BuildCTPData(5, 3, 5, 1, 0, 10, []byte{0x01, 0x01})
	base, err := stack.Decode(packet.MediumIEEE802154, raw)
	if err != nil {
		t.Fatal(err)
	}
	pktAt := func(d time.Duration) *packet.Captured {
		c := base.Clone()
		c.Time = netsim.Epoch.Add(d)
		return c
	}
	packetsSeen := func(n uint64) func() bool {
		return func() bool { p, _, _ := k1.Stats(); return p >= n }
	}

	// --- act I: partition the peer link, detonate the module --------
	inj.Run(fault.Scenario{Name: "partition+panic", Steps: []fault.Step{
		{Name: "partition addr1<->addr2", Do: func() { ft1.Partition("addr2") }},
		{Name: "arm module bomb", Do: func() { bomb.armed.Store(true) }},
	}})

	k1.HandleCapture(pktAt(0))
	waitFor(t, "bomb packet dispatched", packetsSeen(1))
	if h := k1.ModuleHealth()["chaos-bomb"]; h != "quarantined" {
		t.Fatalf("after panic: health = %q (want quarantined)", h)
	}
	if q := k1.QuarantinedModules(); len(q) != 1 || q[0] != "chaos-bomb" {
		t.Fatalf("quarantined = %v", q)
	}
	if lp := k1.LastPanic("chaos-bomb"); lp != "chaos: crafted frame" {
		t.Fatalf("last panic = %q", lp)
	}

	// Knowledge created while partitioned: the push cannot cross.
	k1.KB().PutCollective("SuspectBlackhole", "0x0007", "9")
	if _, ok := k2.KB().Get("K1$SuspectBlackhole@0x0007"); ok {
		t.Fatal("update crossed a partitioned link")
	}

	// --- act II: silence long enough for TTL eviction ---------------
	clock.advance(31 * time.Second)
	k1.Collective().Beacon() // sweeps: K2 has been silent past the TTL
	k2.Collective().Beacon()
	if evictions, _, _ := k1.Collective().Resilience(); evictions != 1 {
		t.Fatalf("evictions = %d (want 1)", evictions)
	}
	if peers := k1.Collective().Peers(); len(peers) != 0 {
		t.Fatalf("peers after eviction = %v", peers)
	}

	// --- act III: heal; the returning peer gets a full re-sync ------
	inj.Run(fault.Scenario{Name: "heal", Steps: []fault.Step{
		{Name: "heal addr1<->addr2", Do: ft1.Heal},
		{Name: "disarm module bomb", Do: func() { bomb.armed.Store(false) }},
	}})
	k1.Collective().Beacon()
	k2.Collective().Beacon()
	if _, ok := k2.KB().Get("K1$SuspectBlackhole@0x0007"); !ok {
		t.Fatal("knowledge created during the partition did not re-sync after heal")
	}

	// --- act IV: backoff elapses; probation; full re-admission ------
	for i := 0; i < module.ProbePackets; i++ {
		k1.HandleCapture(pktAt(module.QuarantineBackoff + time.Second + time.Duration(i)*time.Millisecond))
	}
	waitFor(t, "probation packets dispatched", packetsSeen(1+module.ProbePackets))
	waitFor(t, "module re-admission", func() bool {
		return k1.ModuleHealth()["chaos-bomb"] == "healthy"
	})
	if q := k1.QuarantinedModules(); len(q) != 0 {
		t.Fatalf("still quarantined after probation: %v", q)
	}

	// --- act V: bursts at a lagging consumer lose nothing -----------
	var kgSeen atomic.Uint64
	k1.OnKnowledge(func(knowledge.Knowgget) { kgSeen.Add(1) })
	const knowledgeBurst = 51
	for i := 0; i < knowledgeBurst; i++ {
		k1.KB().PutInt("ChaosBurst", i) // one key, every value a change
	}
	if n := kgSeen.Load(); n != knowledgeBurst {
		t.Fatalf("knowledge burst: %d of %d changes delivered", n, knowledgeBurst)
	}

	var alertsSeen atomic.Uint64
	k1.OnAlert(func(module.Alert) {
		alertsSeen.Add(1)
		time.Sleep(10 * time.Microsecond) // lag the consumer: the ring absorbs it
	})
	before := k1.IngestStats()
	bomb.alerting.Store(true)
	const alertBurst = 1152
	for i := 0; i < alertBurst; i++ {
		k1.HandleCapture(pktAt(10*time.Second + time.Duration(i)*time.Millisecond))
	}
	k1.DrainIngest()
	bomb.alerting.Store(false)
	st := k1.IngestStats()
	if st.Enqueued-before.Enqueued != alertBurst || st.Enqueued != st.Accepted+st.Dropped || st.Accepted != st.Delivered {
		t.Fatalf("ingest accounting does not balance after the burst: %+v (before %+v)", st, before)
	}
	if got, want := alertsSeen.Load(), st.Delivered-before.Delivered; got != want {
		t.Fatalf("alert burst: %d alerts delivered for %d dispatched packets", got, want)
	}

	// --- epilogue: every transition visible in one real scrape ------
	body := scrape(t, k1.Telemetry().Handler())
	for sample, want := range map[string]float64{
		`kalis_module_panics_total{module="chaos-bomb"}`: 1,
		`kalis_module_quarantined`:                       0,
		`kalis_collective_peer_evictions_total`:          1,
		`kalis_collective_peers`:                         1,
	} {
		if got := metricValue(t, body, sample); got != want {
			t.Errorf("scrape: %s = %v (want %v)", sample, got, want)
		}
	}
	for sample, min := range map[string]float64{
		`kalis_collective_send_retries_total`:          1,
		`kalis_bus_publishes_total{topic="knowledge"}`: knowledgeBurst,
		`kalis_fault_injected_total{kind="partition"}`: 2, // Partition() + ≥1 blocked datagram
	} {
		if got := metricValue(t, body, sample); got < min {
			t.Errorf("scrape: %s = %v (want >= %v)", sample, got, min)
		}
	}
	if got, want := metricValue(t, body, `kalis_bus_publishes_total{topic="detection"}`), float64(alertsSeen.Load()); got != want {
		t.Errorf("scrape: %v alerts published, %v delivered", got, want)
	}
	if testing.Verbose() {
		fmt.Println(body)
	}
}
