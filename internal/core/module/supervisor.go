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
//
// Only panics withhold a module: how long it takes is not the
// supervisor's business (overload is the ingest ring's, which drops
// the newest capture or blocks the producer). All timing runs on the
// virtual capture clock (packet timestamps), so simulated scenarios
// exercise the full state machine deterministically and the simclock
// discipline holds.

// The supervisor's tuning, on the capture clock.
const (
	// QuarantineBackoff is the quarantine after a first panic. It
	// doubles on every repeated quarantine up to MaxQuarantineBackoff.
	QuarantineBackoff = 5 * time.Second
	// MaxQuarantineBackoff caps the exponential quarantine backoff.
	MaxQuarantineBackoff = 5 * time.Minute
	// ProbePackets is how many clean packets a probing module must
	// survive before it is fully re-admitted (strikes reset).
	ProbePackets = 32
)

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
	health  moduleHealth
	strikes int // consecutive quarantines; backoff exponent
	// until is the virtual re-admission time; zero for a module
	// quarantined before its shard saw a packet (see reviveLocked).
	until     time.Time
	probeLeft int    // clean packets remaining in probation
	lastPanic string // last recovered panic value, for diagnostics

	// Pre-resolved telemetry child (see resolveStateLocked).
	panics *telemetry.Counter
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
// module that panics there is quarantined on the spot, on the shard's
// capture clock like a panic in HandlePacket.
func (m *Manager) contain(st *moduleState) {
	if r := recover(); r != nil {
		m.quarantine(st, r)
	}
}

func (m *Manager) activate(st *moduleState) {
	defer m.contain(st)
	st.mod.Activate(&Context{
		KB:              m.kb,
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
// its probation with exponential backoff from the shard's capture
// clock (m.now). Callers hold the token.
func (m *Manager) quarantine(st *moduleState, cause interface{}) {
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
	st.until = time.Time{}
	if !m.now.IsZero() {
		st.until = m.now.Add(backoff(st.strikes))
	}
	st.lastPanic = fmt.Sprint(cause)
	st.panics.Inc()
	m.noteHealthLocked(st)
	m.rebuildSnapLocked()
}

// backoff is the quarantine for the given strike count:
// QuarantineBackoff · 2^(strikes-1), capped at MaxQuarantineBackoff.
func backoff(strikes int) time.Duration {
	d := QuarantineBackoff
	for i := 1; i < strikes && d < MaxQuarantineBackoff; i++ {
		d *= 2
	}
	return min(d, MaxQuarantineBackoff)
}

// reviveLocked moves quarantined modules whose backoff elapsed into
// probation. A module quarantined before its shard saw a packet has no
// re-admission time yet: its backoff starts here, at the first packet.
// Runs under m.mu, only while degraded > 0.
func (m *Manager) reviveLocked(now time.Time) {
	changed := false
	for _, st := range m.modules {
		if st.health != stateQuarantined {
			continue
		}
		if st.until.IsZero() {
			st.until = now.Add(backoff(st.strikes))
		}
		if now.Before(st.until) {
			continue
		}
		st.health = stateProbing
		st.probeLeft = ProbePackets
		m.degraded--
		m.noteHealthLocked(st)
		changed = true
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

// Quarantined returns the names of modules currently withheld from
// dispatch by the supervisor (they panicked), in install order.
func (m *Manager) Quarantined() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, st := range m.modules {
		if st.health == stateQuarantined {
			out = append(out, st.name)
		}
	}
	return out
}

// Health reports every installed module's activation/supervision state:
// "inactive" when the knowledge predicate does not want it, otherwise
// the supervision state ("healthy", "quarantined", "probing").
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
