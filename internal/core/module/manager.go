package module

import (
	"maps"
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
// The manager is its modules' only caller and enters them on one
// goroutine at a time (see token). It is also the module supervisor
// (see supervisor.go): a panicking module is quarantined and
// re-admitted after clean probes instead of killing the node. Knowledge
// and panics are the only things that withhold a module from a packet.
type Manager struct {
	kb    *knowledge.Base
	store *datastore.Store
	// flows is the shard's flow table, updated once per packet before
	// module fan-out and handed to every activated module's Context.
	flows           *flow.Table
	knowledgeDriven bool

	// token is the dispatch token: module code (Activate, Deactivate,
	// HandlePacket, HandleKnowledge) runs only on the goroutine holding
	// it. HandleBatch waits for it; everyone else — a Knowledge Base
	// writer on any goroutine, this shard's modules and other shards'
	// included — only ever tries for it (drain), so a goroutine holding
	// one manager's token never waits for another's.
	token sync.Mutex
	// dirty reports a non-empty inbox. Writers set it after appending;
	// the token holder checks it at every packet boundary and once more
	// after giving the token up, so no change is stranded.
	dirty atomic.Bool
	// snap is the immutable active-module snapshot HandleBatch iterates
	// and timed whether per-module latency observation is wired: when
	// true, the modules of one packet in sampleStride are timed (see
	// HandleBatch); when false, none ever is. Both are rebuilt under mu
	// by the token holder, whenever activation, supervision or metrics
	// change, so the holder reads them without mu and the per-packet path
	// neither allocates nor resolves telemetry children.
	snap  []activeEntry
	timed bool
	// spare is the inbox's other buffer, the token holder's.
	spare []change
	// invocations counts (packet, active module) pairs — the basis of
	// the CPU-usage comparison — once per batch.
	invocations atomic.Uint64
	// now is the shard's capture clock: the capture time of the packet
	// being dispatched, or of the last one between packets (zero before
	// the first). Quarantines are timed on it. The token holder's.
	now time.Time

	mu      sync.Mutex
	modules []*moduleState // install order
	states  map[string]*moduleState
	// watches holds the manager's Knowledge Base subscriptions, one per
	// distinct label its modules watch or listen to.
	watches map[string]*watch
	// inbox is what the token holder has yet to do, in arrival order:
	// knowledge changes to act on and supervisor transitions to publish.
	// It has no bound of its own: what fills it while the shard is busy
	// is paced by packets (modules, of any shard) or the network (gossip).
	inbox []change
	// alertFns is copy-on-write (OnAlert): emit walks it in place.
	alertFns []AlertFunc
	alerts   []Alert

	// degraded counts modules currently quarantined; the supervisor's
	// revival scan runs only while it is non-zero.
	degraded int

	// Work accounting: packets dispatched and activation transitions.
	packets     uint64
	activations uint64

	met ManagerMetrics
}

// watch is one Knowledge Base subscription: the modules whose Required
// reads the label and the modules that asked to be handed its changes,
// each in install order.
type watch struct {
	deciders, listeners []*moduleState
}

// change is one inbox entry. With a watch it is an accepted knowgget
// change for that watch's modules (an Install files one for the new
// module alone); without, kg is a supervisor transition to publish: the
// new ModuleHealth state of module kg.Entity.
type change struct {
	w  *watch
	kg knowledge.Knowgget
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
	// PacketLatency estimates per-module HandlePacket wall time, by
	// module name: one packet in sampleStride is timed (see sampled) and
	// each observation weighted sampleStride, so count and sum estimate
	// the module's invocations and busy time. When nil, the manager reads
	// no clock for it.
	PacketLatency *telemetry.HistogramVec
	// Panics counts recovered module panics, by module name.
	Panics *telemetry.CounterVec
	// FlowUpdate observes the flow-table update latency on the same
	// sampled packets (unweighted). It is measured here rather than
	// inside internal/flow so the flow package itself stays on the
	// virtual capture clock.
	FlowUpdate *telemetry.Histogram
}

// sampleStride is the length of a timing block: of every sampleStride
// consecutive packets (counted across batches, from 0) exactly one has
// its flow update and every module invocation timed, and the others
// read no clock. A Now/Since pair costs about as much as a detector's
// own work on a packet, so timing every invocation doubled the dispatch
// cost it was there to report.
const (
	sampleShift  = 4
	sampleStride = 1 << sampleShift
)

// sampled is the one wall-clock sampling decision of the packet path: it
// reports whether packet number n is the timed one of its block. Which
// packet of a block that is moves from block to block (the top bits of a
// multiply-xorshift hash of the block number; block 0's is packet 0),
// because IoT traffic is periodic: round-robin senders repeat every
// four or eight frames, and a fixed offset — packets 0, 16, 32, … —
// times the same senders' frames for ever and reads a module whose cost
// depends on the sender at a multiple or a fraction of it
// (EXPERIMENTS.md, "The clock is not a module").
func sampled(n uint64) bool {
	const golden = 0x9E3779B97F4A7C15
	h := (n >> sampleShift) * golden
	h ^= h >> 29
	h *= golden
	return n&(sampleStride-1) == h>>(64-sampleShift)
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
		watches:         make(map[string]*watch),
		knowledgeDriven: knowledgeDriven,
	}
}

// KnowledgeDriven reports whether adaptive activation is enabled.
func (m *Manager) KnowledgeDriven() bool { return m.knowledgeDriven }

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (m *Manager) SetMetrics(met ManagerMetrics) {
	m.token.Lock()
	defer m.token.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = met
	for _, st := range m.modules {
		m.resolveStateLocked(st)
	}
	m.rebuildSnapLocked()
}

// resolveStateLocked caches a state's telemetry children so the packet
// path and the (cold but on-path) quarantine branch never pay a Vec
// lookup. Callers must hold m.mu.
func (m *Manager) resolveStateLocked(st *moduleState) {
	//lint:ignore hotpath wiring-time child resolution, never on the packet path
	st.panics = m.met.Panics.With(st.name)
}

// rebuildSnapLocked recomputes the dispatchable-module snapshot,
// resolving each module's latency histogram child once — off the
// packet path. A module is dispatched when its knowledge predicate
// wants it active and the supervisor does not hold it quarantined.
// Callers must hold the token and m.mu.
func (m *Manager) rebuildSnapLocked() {
	m.timed = m.met.PacketLatency != nil
	snap := make([]activeEntry, 0, len(m.modules))
	for _, st := range m.modules {
		if !st.want || st.health == stateQuarantined {
			continue
		}
		e := activeEntry{mod: st.mod, st: st, probing: st.health == stateProbing}
		if m.timed {
			//lint:ignore hotpath snapshot rebuild is a rare supervision/activation event, not per-packet work
			e.lat = m.met.PacketLatency.With(st.name)
		}
		snap = append(snap, e)
	}
	m.snap = snap
}

// OnAlert registers a consumer for every alert raised by any module.
func (m *Manager) OnAlert(fn AlertFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alertFns = append(m.alertFns[:len(m.alertFns):len(m.alertFns)], fn)
}

// Install adds a module, subscribes the manager to the labels it
// watches or listens to that no earlier module did, and files the
// module's first evaluation: it is inactive until its knowledge
// predicate first holds — on an idle shard, before Install returns.
func (m *Manager) Install(mod Module, params map[string]string) {
	st := &moduleState{mod: mod, name: mod.Name(), params: params}
	m.mu.Lock()
	m.resolveStateLocked(st)
	m.modules = append(m.modules, st)
	m.states[st.name] = st
	for _, label := range mod.WatchLabels() {
		w := m.watchLocked(label)
		w.deciders = append(w.deciders, st)
	}
	if l, ok := mod.(KnowledgeHandler); ok {
		for _, label := range l.KnowledgeLabels() {
			w := m.watchLocked(label)
			w.listeners = append(w.listeners, st)
		}
	}
	m.mu.Unlock()
	m.file(change{w: &watch{deciders: []*moduleState{st}}})
}

// watchLocked returns the subscription for a label, subscribing on
// first use. Callers must hold m.mu.
func (m *Manager) watchLocked(label string) *watch {
	w := m.watches[label]
	if w == nil {
		w = &watch{}
		m.watches[label] = w
		// The handler runs on whichever goroutine stored the knowgget — a
		// module of this shard or of another, the gossip receive loop — so
		// it evaluates nothing and calls no module: it files the change.
		m.kb.Subscribe(label, func(kg knowledge.Knowgget) { m.file(change{w: w, kg: kg}) })
	}
	return w
}

// file puts one entry in the inbox and, if the shard is idle, applies
// it on the spot.
func (m *Manager) file(c change) {
	m.mu.Lock()
	m.inbox = append(m.inbox, c)
	m.mu.Unlock()
	m.dirty.Store(true)
	m.drain()
}

// drain applies the inbox if nobody holds the token. If somebody does,
// they will: at their next packet boundary, or — the lost-wake-up case,
// a change filed between their last check and their Unlock — here, in
// the drain every holder runs after giving the token up.
func (m *Manager) drain() {
	for m.dirty.Load() && m.token.TryLock() {
		m.apply()
		m.token.Unlock()
	}
}

// apply empties the inbox in arrival order; changes filed meanwhile (a
// module storing knowledge from Activate, a published transition coming
// back as a knowgget) are applied before it returns. For a knowledge
// change: the modules watching the label are re-evaluated and the ones
// whose target flipped get Activate or Deactivate, in install order;
// then the active modules listening to the label are handed the
// knowgget. The caller holds the token, so every call lands between two
// packets of this shard and matches the knowledge as of that boundary.
//
//lint:coldpath knowledge changes on watched labels, installs and supervisor transitions are rare by construction; Activate/Deactivate/HandleKnowledge and flow-tracker acquisition are off the per-packet budget
func (m *Manager) apply() {
	for m.dirty.Swap(false) {
		m.mu.Lock()
		todo := m.inbox
		m.inbox = m.spare[:0]
		m.mu.Unlock()
		for _, c := range todo {
			if c.w == nil {
				m.kb.PutCollective(c.kg.Label+"."+c.kg.Entity, "", c.kg.Value)
				continue
			}
			flipped, listeners := m.retarget(c.w)
			for _, st := range flipped {
				if st.want {
					m.activate(st)
				} else {
					m.deactivate(st)
				}
			}
			for _, st := range listeners {
				if st.want {
					m.hand(st, c.kg)
				}
			}
		}
		clear(todo)
		m.spare = todo
	}
}

// retarget re-evaluates a watch's deciding modules against the current
// knowledge and returns the ones whose target changed, with the watch's
// listeners as of now (Install may be appending to either list).
func (m *Manager) retarget(w *watch) (flipped, listeners []*moduleState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range w.deciders {
		if want := !m.knowledgeDriven || st.mod.Required(m.kb); want != st.want {
			st.want = want
			m.activations++
			flipped = append(flipped, st)
		}
	}
	if flipped != nil {
		m.rebuildSnapLocked()
	}
	return flipped, w.listeners
}

func (m *Manager) emit(a Alert) {
	m.mu.Lock()
	m.alerts = append(m.alerts, a)
	fns := m.alertFns
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
// every dispatchable module under the supervisor's panic barrier, with
// the dispatch token held from the first packet to the last. The
// snapshot is immutable, so the per-batch work is the token, one lock
// round-trip and one counter, and the per-packet work the store append,
// the flow update and the module invocations themselves — no
// allocation, no telemetry child lookups, and no clock read except on
// one packet in sampleStride, where the flow update and each module
// invocation are timed and a module's observation stands for
// sampleStride invocations. kalis_module_packet_seconds is therefore an
// estimate: its count is within one stride of the module's invocations
// and its mean is the mean of the sampled ones. The inline executor
// hands HandleBatch one packet, a ring worker up to a batch
// (internal/ingest). The supervisor's revival scan runs once per batch,
// on the last packet's capture time. The inbox, however, is checked
// before every packet (one atomic load) — a knowledge flip activating a
// module, a quarantine to publish — so a batch dispatches to the same
// modules, packet for packet, as the same packets handed over one at a
// time.
func (m *Manager) HandleBatch(batch []*packet.Captured) {
	if len(batch) == 0 {
		return
	}
	last := batch[len(batch)-1]

	m.token.Lock()
	m.mu.Lock()
	base := m.packets
	m.packets += uint64(len(batch))
	if m.degraded > 0 {
		m.reviveLocked(last.Time)
	}
	flowLat := m.met.FlowUpdate
	m.met.Packets.Add(uint64(len(batch)))
	m.mu.Unlock()

	var invoked uint64
	for bi, c := range batch {
		if m.dirty.Load() {
			m.apply()
		}
		m.now = c.Time
		snap := m.snap
		invoked += uint64(len(snap))
		sample := sampled(base + uint64(bi))
		// Data Store append errors surface only when disk logging is
		// enabled; the window append itself cannot fail. A passive IDS
		// keeps observing either way.
		_ = m.store.Append(c)
		// The flow table updates exactly once per packet, before module
		// fan-out, so every module reads post-packet flow state. The
		// latency is measured here (wall clock) rather than inside
		// internal/flow, which stays on the virtual capture clock.
		if sample && flowLat != nil {
			start := time.Now()
			m.flows.Update(c)
			flowLat.Observe(time.Since(start))
		} else {
			m.flows.Update(c)
		}
		timing := sample && m.timed
		for _, e := range snap {
			var start time.Time
			if timing {
				start = time.Now()
			}
			ok, cause := m.invoke(e.mod, c)
			if !ok {
				m.quarantine(e.st, cause)
				continue
			}
			if timing {
				e.lat.ObserveN(time.Since(start), sampleStride)
			}
			if e.probing {
				m.probeOK(e.st)
			}
		}
	}
	m.invocations.Add(invoked)
	m.token.Unlock()
	m.drain()
}

// Active returns the names of the modules the knowledge currently
// activates, in install order (quarantined modules included: their
// activation is a knowledge decision, their dispatch a supervision
// one — see Quarantined and Health).
func (m *Manager) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.modules))
	for _, st := range m.modules {
		if st.want {
			out = append(out, st.name)
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
	for _, st := range m.modules {
		out = append(out, st.name)
	}
	return out
}

// ParamsOf returns a copy of the parameters a module was installed
// with.
func (m *Manager) ParamsOf(name string) map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.states[name]; st != nil {
		return maps.Clone(st.params)
	}
	return nil
}

// ModuleKind returns the kind of an installed module.
func (m *Manager) ModuleKind(name string) (Kind, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.states[name]; st != nil {
		return st.mod.Kind(), true
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
	return m.packets, m.invocations.Load(), m.activations
}
