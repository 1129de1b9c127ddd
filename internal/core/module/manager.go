package module

import (
	"sync"
	"sync/atomic"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// AlertFunc consumes alerts collected by the manager.
type AlertFunc func(Alert)

// Manager coordinates all modules: it routes new packet events to the
// active modules, collects detection alerts, and — when knowledge-
// driven operation is enabled — activates/deactivates modules as the
// Knowledge Base changes, via the publish-subscribe mechanism of §V
// ("Dynamic Detection Module Configuration").
//
// With knowledge-driven operation disabled the manager keeps every
// installed module active at all times; this is exactly the paper's
// "traditional IDS" baseline (§VI-B: "we emulate a traditional IDS by
// running our system without Knowledge Base, and with all the modules
// active at all times").
//
// The manager is also the module supervisor (see supervisor.go): a
// panicking module is quarantined and re-admitted after clean probes
// instead of killing the node, and a latency circuit breaker sheds
// persistently-over-budget modules while the pipeline is under queue
// pressure.
type Manager struct {
	kb    *knowledge.Base
	store *datastore.Store
	// flows is the shard's flow table, updated once per packet before
	// module fan-out and handed to every activated module's Context.
	flows *flow.Table

	mu              sync.Mutex
	modules         []Module
	states          map[string]*moduleState
	params          map[string]map[string]string
	knowledgeDriven bool
	alertFns        []AlertFunc
	alerts          []Alert

	// snap is the immutable active-module snapshot HandleBatch
	// iterates: rebuilt under mu whenever activation, supervision or
	// metrics change, so the per-packet path neither allocates nor
	// resolves telemetry children.
	snap []activeEntry
	// snapGen counts snapshot rebuilds, so a batch in flight notices a
	// rebuild with one atomic load per packet.
	snapGen atomic.Uint64
	// timed reports whether per-module latency observation is wired
	// (when false HandleBatch skips the clock reads too).
	timed bool

	// degraded counts modules currently quarantined or shed; the
	// supervisor's revival scan runs only while it is non-zero.
	degraded int

	// pendingHealth queues supervisor state transitions for
	// publication as ModuleHealth knowggets once the lock is released
	// (the Knowledge Base notifies subscribers synchronously, so
	// publishing under mu could deadlock through re-entrant
	// activation).
	pendingHealth []healthEvent

	sup      SupervisorConfig
	pressure func() int

	// Work accounting, the basis of the CPU-usage comparison: every
	// (packet, active module) pair costs one invocation.
	packets     uint64
	invocations uint64
	activations uint64

	met ManagerMetrics
}

// activeEntry pairs a dispatchable module with its pre-resolved
// telemetry children and supervision state (resolved off the packet
// path).
type activeEntry struct {
	mod Module
	lat *telemetry.Histogram
	st  *moduleState
	// probing marks a module on post-quarantine probation: clean
	// packets count towards re-admission.
	probing bool
}

// ManagerMetrics are the manager's optional telemetry hooks; zero-value
// fields are skipped (all telemetry types are nil-safe).
type ManagerMetrics struct {
	// Packets counts packets dispatched to the module pipeline.
	Packets *telemetry.Counter
	// PacketLatency observes per-module HandlePacket wall time, by
	// module name. When nil, the manager skips the clock reads too.
	PacketLatency *telemetry.HistogramVec
	// Panics counts recovered module panics, by module name.
	Panics *telemetry.CounterVec
	// BreakerTrips counts latency-circuit-breaker trips.
	BreakerTrips *telemetry.Counter
	// FlowUpdate observes the flow-table update latency, sampled. It is
	// measured here rather than inside internal/flow so the flow package
	// itself stays on the virtual capture clock.
	FlowUpdate *telemetry.Histogram
}

// NewManager creates a manager bound to a Knowledge Base, Data Store
// and flow table. knowledgeDriven selects adaptive module activation
// (Kalis) vs all-modules-always-on (traditional IDS baseline).
func NewManager(kb *knowledge.Base, store *datastore.Store, flows *flow.Table, knowledgeDriven bool) *Manager {
	return &Manager{
		kb:              kb,
		store:           store,
		flows:           flows,
		states:          make(map[string]*moduleState),
		params:          make(map[string]map[string]string),
		knowledgeDriven: knowledgeDriven,
		sup:             DefaultSupervisorConfig(),
	}
}

// KnowledgeDriven reports whether adaptive activation is enabled.
func (m *Manager) KnowledgeDriven() bool { return m.knowledgeDriven }

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (m *Manager) SetMetrics(met ManagerMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = met
	for _, mod := range m.modules {
		m.resolveStateLocked(m.states[mod.Name()], mod.Name())
	}
	m.rebuildSnapLocked()
}

// resolveStateLocked caches a state's telemetry children so the packet
// path and the (cold but on-path) quarantine branch never pay a Vec
// lookup. Callers must hold m.mu.
func (m *Manager) resolveStateLocked(st *moduleState, name string) {
	//lint:ignore hotpath wiring-time child resolution, never on the packet path
	st.panics = m.met.Panics.With(name)
}

// rebuildSnapLocked recomputes the dispatchable-module snapshot,
// resolving each module's latency histogram child once — off the
// packet path. A module is dispatched when its knowledge predicate
// wants it active and the supervisor holds it neither quarantined nor
// shed. Callers must hold m.mu.
func (m *Manager) rebuildSnapLocked() {
	m.timed = m.met.PacketLatency != nil
	snap := make([]activeEntry, 0, len(m.modules))
	for _, mod := range m.modules {
		st := m.states[mod.Name()]
		if !st.want || (st.health != stateHealthy && st.health != stateProbing) {
			continue
		}
		e := activeEntry{mod: mod, st: st, probing: st.health == stateProbing}
		if m.timed {
			//lint:ignore hotpath snapshot rebuild is a rare supervision/activation event, not per-packet work
			e.lat = m.met.PacketLatency.With(mod.Name())
		}
		snap = append(snap, e)
	}
	m.snap = snap
	m.snapGen.Add(1)
}

// OnAlert registers a consumer for every alert raised by any module.
func (m *Manager) OnAlert(fn AlertFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alertFns = append(m.alertFns, fn)
}

// Install adds a module (inactive until its knowledge predicate first
// holds) and subscribes its watch labels to the Knowledge Base.
func (m *Manager) Install(mod Module, params map[string]string) {
	m.mu.Lock()
	m.modules = append(m.modules, mod)
	st := &moduleState{name: mod.Name()}
	m.resolveStateLocked(st, mod.Name())
	m.states[mod.Name()] = st
	m.params[mod.Name()] = params
	m.mu.Unlock()

	for _, label := range mod.WatchLabels() {
		mod := mod
		m.kb.Subscribe(label, func(knowledge.Knowgget) { m.reevaluate(mod) })
	}
	m.reevaluate(mod)
}

// reevaluate synchronizes one module's activation with the current
// knowledge. Transitions are serialized per module: the first caller to
// observe a pending transition becomes the owner of the module's
// transition loop, and concurrent knowledge updates only move the
// target state — they never interleave Activate/Deactivate calls, so a
// module always ends up last-called with the transition matching the
// final knowledge state (no stale Context).
//
//lint:coldpath activation transitions run on knowledge flips and install/param changes, not per packet; Activate/Deactivate and flow-tracker acquisition are off the per-packet budget
func (m *Manager) reevaluate(mod Module) {
	m.mu.Lock()
	st := m.states[mod.Name()]
	if st == nil {
		m.mu.Unlock()
		return
	}
	want := !m.knowledgeDriven || mod.Required(m.kb)
	if want != st.want {
		st.want = want
		m.activations++
		m.rebuildSnapLocked()
	}
	if st.transitioning || st.applied == st.want {
		// Another goroutine owns this module's transition loop and will
		// observe the new target before it exits — or there is nothing
		// to do. Either way, returning here cannot strand a transition.
		m.mu.Unlock()
		return
	}
	st.transitioning = true
	params := m.params[mod.Name()]
	m.mu.Unlock()
	m.applyTransitions(mod, st, params)
}

// applyTransitions delivers Activate/Deactivate calls until the
// module's applied state matches the target. Only one goroutine runs
// this loop per module (st.transitioning); the loop re-reads the
// target after every call, so a knowledge flip that lands mid-call is
// applied next — never lost, never reordered.
func (m *Manager) applyTransitions(mod Module, st *moduleState, params map[string]string) {
	for {
		m.mu.Lock()
		want := st.want
		if want == st.applied {
			st.transitioning = false
			m.mu.Unlock()
			return
		}
		st.applied = want
		m.mu.Unlock()
		if want {
			m.safeActivate(mod, &Context{
				KB:              m.kb,
				Store:           m.store,
				Flows:           m.flows,
				Emit:            m.emit,
				Params:          params,
				KnowledgeDriven: m.knowledgeDriven,
			})
		} else {
			m.safeDeactivate(mod)
		}
	}
}

func (m *Manager) emit(a Alert) {
	m.mu.Lock()
	m.alerts = append(m.alerts, a)
	fns := make([]AlertFunc, len(m.alertFns))
	copy(fns, m.alertFns)
	m.mu.Unlock()
	for _, fn := range fns {
		fn(a)
	}
}

// HandlePacket dispatches one packet: HandleBatch over a one-element
// batch (the array stays on the caller's stack).
func (m *Manager) HandlePacket(c *packet.Captured) {
	one := [1]*packet.Captured{c}
	m.HandleBatch(one[:])
}

// HandleBatch is the one dispatch loop: every packet of the batch is
// recorded in the Data Store, folded into the flow table and routed to
// every dispatchable module under the supervisor's panic barrier. The
// snapshot is immutable, so the per-batch work is one lock round-trip
// and the per-packet work the store append, the flow update and the
// module invocations themselves — no allocation, no telemetry child
// lookups. The inline executor hands it one packet, a ring worker up to
// a batch (internal/ingest). The supervisor runs once per batch on the
// last packet's capture time: revival and breaker decisions are
// windowed anyway, so batch-granular evaluation only defers them by at
// most one batch. The snapshot, however, is re-read as soon as a packet
// of the batch changes it (a knowledge flip activating a module, a
// quarantine), so a batch dispatches to the same modules, packet for
// packet, as the same packets handed over one at a time.
func (m *Manager) HandleBatch(batch []*packet.Captured) {
	if len(batch) == 0 {
		return
	}
	last := batch[len(batch)-1]

	m.mu.Lock()
	base := m.packets
	m.packets += uint64(len(batch))
	if m.degraded > 0 {
		m.reviveLocked(last.Time)
	}
	if m.pressure != nil && m.sup.BreakerWindow > 0 &&
		m.packets/uint64(m.sup.BreakerWindow) != base/uint64(m.sup.BreakerWindow) {
		m.breakerLocked(last.Time)
	}
	snap, gen := m.snap, m.snapGen.Load()
	timed := m.timed
	flowLat := m.met.FlowUpdate
	var health []healthEvent
	if len(m.pendingHealth) > 0 {
		health = m.pendingHealth
		m.pendingHealth = nil
	}
	m.invocations += uint64(len(snap)) * uint64(len(batch))
	m.met.Packets.Add(uint64(len(batch)))
	m.mu.Unlock()

	if len(health) > 0 {
		m.publishHealth(health)
	}

	for bi, c := range batch {
		// Data Store append errors surface only when disk logging is
		// enabled; the window append itself cannot fail. A passive IDS
		// keeps observing either way.
		_ = m.store.Append(c)
		// The flow table updates exactly once per packet, before module
		// fan-out, so every module reads post-packet flow state. The
		// latency is measured here (wall clock) rather than inside
		// internal/flow, which stays on the virtual capture clock, and
		// sampled (1 packet in 16, counted across batches): two clock
		// reads per packet would cost more than the update they measure.
		if flowLat != nil && (base+uint64(bi))&0xf == 0 {
			start := time.Now()
			m.flows.Update(c)
			flowLat.Observe(time.Since(start))
		} else {
			m.flows.Update(c)
		}
		for _, e := range snap {
			var start time.Time
			if timed {
				start = time.Now()
			}
			ok, cause := m.invoke(e.mod, c)
			if !ok {
				m.quarantine(e.st, c.Time, cause)
				continue
			}
			if timed {
				e.lat.Observe(time.Since(start))
			}
			if e.probing {
				m.probeOK(e.st)
			}
		}
		if rest := uint64(len(batch) - bi - 1); rest > 0 && m.snapGen.Load() != gen {
			m.mu.Lock()
			m.invocations += uint64(len(m.snap))*rest - uint64(len(snap))*rest
			snap, gen, timed = m.snap, m.snapGen.Load(), m.timed
			m.mu.Unlock()
		}
	}
}

// Active returns the names of the modules the knowledge currently
// activates, in install order (quarantined modules included: their
// activation is a knowledge decision, their dispatch a supervision
// one — see Quarantined and Health).
func (m *Manager) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.modules))
	for _, mod := range m.modules {
		if m.states[mod.Name()].want {
			out = append(out, mod.Name())
		}
	}
	return out
}

// Installed returns the names of all installed modules, in install
// order.
func (m *Manager) Installed() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.modules))
	for _, mod := range m.modules {
		out = append(out, mod.Name())
	}
	return out
}

// ParamsOf returns the parameters a module was installed with.
func (m *Manager) ParamsOf(name string) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	params := m.params[name]
	out := make(map[string]string, len(params))
	for k, v := range params {
		out[k] = v
	}
	return out
}

// ModuleKind returns the kind of an installed module.
func (m *Manager) ModuleKind(name string) (Kind, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mod := range m.modules {
		if mod.Name() == name {
			return mod.Kind(), true
		}
	}
	return 0, false
}

// Alerts returns a copy of all alerts collected so far.
func (m *Manager) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// Stats returns work-accounting counters: packets dispatched, total
// (packet × active module) invocations, and activation transitions.
func (m *Manager) Stats() (packets, invocations, activations uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.packets, m.invocations, m.activations
}
