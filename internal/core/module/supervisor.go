package module

import (
	"fmt"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// This file is the module supervisor: the only place in the tree where
// recover is legal (enforced by kalislint's nopanic rule). The paper's
// core claim (§V, §VI-B) is that a Kalis node keeps observing under
// hostile conditions; a detection module that panics on a crafted frame
// must therefore be contained, counted and re-admitted — never allowed
// to kill the node.
//
// Supervision state machine (per module):
//
//	healthy ──panic──▶ quarantined ──backoff elapses──▶ probing
//	probing ──ProbePackets clean packets──▶ healthy (strikes reset)
//	probing ──panic──▶ quarantined (backoff doubles)
//	healthy ──breaker trip──▶ shed ──backoff + pressure subsides──▶ healthy
//
// All timing runs on the virtual capture clock (packet timestamps), so
// simulated scenarios exercise the full state machine deterministically
// and the simclock discipline holds.

// moduleHealth is a module's supervision state.
type moduleHealth int

const (
	// stateHealthy modules are dispatched normally.
	stateHealthy moduleHealth = iota
	// stateQuarantined modules panicked and are withheld from dispatch
	// until their backoff elapses.
	stateQuarantined
	// stateProbing modules are back on the packet stream on probation:
	// ProbePackets clean invocations re-admit them fully.
	stateProbing
	// stateShed modules were tripped by the latency circuit breaker and
	// are withheld until the backoff elapses and queue pressure drops.
	stateShed
)

// String returns the health-state name used by Health and diagnostics.
func (h moduleHealth) String() string {
	switch h {
	case stateHealthy:
		return "healthy"
	case stateQuarantined:
		return "quarantined"
	case stateProbing:
		return "probing"
	case stateShed:
		return "shed"
	default:
		return "unknown"
	}
}

// noteHealthLocked files a module's current supervision state for
// publication as a collective ModuleHealth.<name> knowgget, so peer
// Kalis nodes can correlate module crashes across the network. Every
// supervisor transition happens under the dispatch token, and the
// holder publishes at its next packet boundary (Manager.apply) — not
// here: the Knowledge Base notifies synchronously and m.mu is held.
// Callers must hold m.mu.
func (m *Manager) noteHealthLocked(st *moduleState) {
	m.inbox = append(m.inbox, change{kg: knowledge.Knowgget{
		Label: knowledge.LabelModuleHealth, Entity: st.name, Value: st.health.String(),
	}})
	m.dirty.Store(true)
}

// moduleState is the manager's per-module bookkeeping: activation
// (knowledge-driven) and supervision (fault containment).
type moduleState struct {
	mod Module
	// name is the module's registry name.
	name   string
	params map[string]string
	// want is the activation target the knowledge predicate asked for at
	// the last evaluation. Activate/Deactivate follow in the same step
	// (Manager.apply), so it is also what the module was last told.
	// Written under m.mu by the token holder.
	want bool

	// Supervision.
	health    moduleHealth
	strikes   int       // consecutive quarantines; backoff exponent
	until     time.Time // virtual re-admission time (quarantine/shed)
	probeLeft int       // clean packets remaining in probation
	lastPanic string    // last recovered panic value, for diagnostics

	// Pre-resolved telemetry child (see resolveStateLocked).
	panics *telemetry.Counter

	// Breaker bookkeeping: the windowed latency mean is computed from
	// deltas over the module's existing telemetry histogram.
	lastCount uint64
	lastSum   time.Duration
	over      int // consecutive observed over-budget windows
}

// SupervisorConfig tunes the module supervisor. The zero value disables
// nothing: use DefaultSupervisorConfig as the base and override fields.
type SupervisorConfig struct {
	// Backoff is the initial quarantine duration after a panic, in
	// virtual (capture-timestamp) time. It doubles on every repeated
	// quarantine up to MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential quarantine backoff.
	MaxBackoff time.Duration
	// ProbePackets is how many clean packets a probing module must
	// survive before it is fully re-admitted (strikes reset).
	ProbePackets int
	// BreakerBudget is the per-packet latency budget; a module whose
	// mean over an evaluation window exceeds it while the pipeline is
	// under pressure accumulates a strike.
	BreakerBudget time.Duration
	// BreakerWindow is the packet interval between breaker evaluations
	// (0 disables the breaker).
	BreakerWindow int
	// BreakerStrikes is how many consecutive over-budget windows trip
	// the breaker.
	BreakerStrikes int
	// PressureThreshold is the queue depth (from the pressure hook) at
	// or above which the pipeline counts as under pressure.
	PressureThreshold int
	// ShedBackoff is how long (virtual time) a breaker-shed module
	// stays out before re-admission is considered.
	ShedBackoff time.Duration
}

// DefaultSupervisorConfig returns the production supervisor tuning.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		Backoff:           5 * time.Second,
		MaxBackoff:        5 * time.Minute,
		ProbePackets:      32,
		BreakerBudget:     2 * time.Millisecond,
		BreakerWindow:     256,
		BreakerStrikes:    3,
		PressureThreshold: 512,
		ShedBackoff:       30 * time.Second,
	}
}

// SetSupervisor replaces the supervisor tuning. Call it before traffic
// flows.
func (m *Manager) SetSupervisor(cfg SupervisorConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sup = cfg
}

// SetPressure installs the queue-pressure hook feeding the latency
// circuit breaker (the node's ingest-ring depth). The breaker stays
// disarmed until a hook is installed.
func (m *Manager) SetPressure(fn func() int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pressure = fn
}

// invoke runs one module's HandlePacket under the supervisor's panic
// barrier. It reports ok=false and the recovered value when the module
// panicked.
func (m *Manager) invoke(mod Module, c *packet.Captured) (ok bool, cause interface{}) {
	defer func() {
		if r := recover(); r != nil {
			ok, cause = false, r
		}
	}()
	mod.HandlePacket(c)
	return true, nil
}

// contain is the panic barrier of the entry points apply calls: a
// module that panics there is quarantined on the spot (with a zero
// virtual timestamp: the first packet's revival scan re-times it).
func (m *Manager) contain(st *moduleState) {
	if r := recover(); r != nil {
		m.quarantine(st, time.Time{}, r)
	}
}

func (m *Manager) activate(st *moduleState) {
	defer m.contain(st)
	st.mod.Activate(&Context{
		KB:              m.kb,
		Store:           m.store,
		Flows:           m.flows,
		Emit:            m.emit,
		Params:          st.params,
		KnowledgeDriven: m.knowledgeDriven,
	})
}

func (m *Manager) deactivate(st *moduleState) {
	defer m.contain(st)
	st.mod.Deactivate()
}

// hand is for the modules on a watch's listeners list: Install put
// them there because they implement KnowledgeHandler.
func (m *Manager) hand(st *moduleState, kg knowledge.Knowgget) {
	defer m.contain(st)
	st.mod.(KnowledgeHandler).HandleKnowledge(kg)
}

// quarantine withholds a panicked module from dispatch and schedules
// its probation with exponential backoff on the virtual clock.
func (m *Manager) quarantine(st *moduleState, at time.Time, cause interface{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.health == stateQuarantined {
		return
	}
	if st.health == stateHealthy || st.health == stateProbing {
		m.degraded++
	}
	st.health = stateQuarantined
	st.strikes++
	st.until = at.Add(m.backoffLocked(st.strikes))
	st.lastPanic = fmt.Sprint(cause)
	st.panics.Inc()
	m.noteHealthLocked(st)
	m.rebuildSnapLocked()
}

// backoffLocked computes the quarantine backoff for the given strike
// count: Backoff · 2^(strikes-1), capped at MaxBackoff.
func (m *Manager) backoffLocked(strikes int) time.Duration {
	d := m.sup.Backoff
	for i := 1; i < strikes; i++ {
		d *= 2
		if m.sup.MaxBackoff > 0 && d >= m.sup.MaxBackoff {
			return m.sup.MaxBackoff
		}
	}
	if m.sup.MaxBackoff > 0 && d > m.sup.MaxBackoff {
		d = m.sup.MaxBackoff
	}
	return d
}

// reviveLocked re-admits quarantined modules whose backoff elapsed
// (into probation) and shed modules once their backoff elapsed and the
// queue pressure subsided. Runs under m.mu, only while degraded > 0.
func (m *Manager) reviveLocked(now time.Time) {
	changed := false
	for _, st := range m.modules {
		switch st.health {
		case stateQuarantined:
			if !now.Before(st.until) {
				st.health = stateProbing
				st.probeLeft = m.sup.ProbePackets
				m.degraded--
				m.noteHealthLocked(st)
				changed = true
			}
		case stateShed:
			if now.Before(st.until) {
				continue
			}
			if m.pressure != nil && m.pressure() >= m.sup.PressureThreshold {
				// Still saturated: stay out for another backoff period
				// rather than rescanning every packet.
				st.until = now.Add(m.sup.ShedBackoff)
				continue
			}
			st.health = stateHealthy
			st.over = 0
			m.degraded--
			m.noteHealthLocked(st)
			changed = true
		}
	}
	if changed {
		m.rebuildSnapLocked()
	}
}

// probeOK credits one clean probation packet; after ProbePackets clean
// invocations the module is fully re-admitted and its strike count
// reset.
func (m *Manager) probeOK(st *moduleState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.health != stateProbing {
		return
	}
	st.probeLeft--
	if st.probeLeft <= 0 {
		st.health = stateHealthy
		st.strikes = 0
		m.noteHealthLocked(st)
		m.rebuildSnapLocked()
	}
}

// breakerLocked is the latency circuit breaker: fed by the per-module
// telemetry histograms, it sheds modules whose windowed mean latency
// stays over budget while the pipeline is under queue pressure — the
// ROADMAP's knowledge-driven load shedding. Runs under m.mu every
// BreakerWindow packets. The histograms hold one timed invocation per
// sampleStride packets, so a window's mean is over BreakerWindow /
// sampleStride samples (16 at the default 256) and a window shorter
// than two strides can be empty: an empty window neither adds a strike
// nor clears one, only a window without pressure or with an in-budget
// mean clears them.
func (m *Manager) breakerLocked(now time.Time) {
	under := m.pressure() >= m.sup.PressureThreshold
	changed := false
	for _, e := range m.snap {
		if e.lat == nil || e.st.health != stateHealthy {
			continue
		}
		st := e.st
		count, sum := e.lat.Count(), e.lat.Sum()
		dc := count - st.lastCount
		ds := sum - st.lastSum
		st.lastCount, st.lastSum = count, sum
		if !under {
			st.over = 0
			continue
		}
		if dc == 0 {
			// No timed packet fell in this window (it is shorter than a
			// timing block, or the module was just activated): no
			// evidence either way, the strikes stand.
			continue
		}
		if ds/time.Duration(dc) > m.sup.BreakerBudget {
			st.over++
		} else {
			st.over = 0
		}
		if st.over >= m.sup.BreakerStrikes {
			st.over = 0
			st.health = stateShed
			st.until = now.Add(m.sup.ShedBackoff)
			m.degraded++
			m.met.BreakerTrips.Inc()
			m.noteHealthLocked(st)
			changed = true
		}
	}
	if changed {
		m.rebuildSnapLocked()
	}
}

// Quarantined returns the names of modules currently withheld from
// dispatch by the supervisor (quarantined or shed), in install order.
func (m *Manager) Quarantined() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, st := range m.modules {
		if st.health == stateQuarantined || st.health == stateShed {
			out = append(out, st.name)
		}
	}
	return out
}

// Health reports every installed module's activation/supervision state:
// "inactive" when the knowledge predicate does not want it, otherwise
// the supervision state ("healthy", "quarantined", "probing", "shed").
func (m *Manager) Health() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.modules))
	for _, st := range m.modules {
		out[st.name] = "inactive"
		if st.want {
			out[st.name] = st.health.String()
		}
	}
	return out
}

// LastPanic returns the most recent recovered panic value for a module
// ("" when it never panicked), for diagnostics and tests.
func (m *Manager) LastPanic(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.states[name]; st != nil {
		return st.lastPanic
	}
	return ""
}
