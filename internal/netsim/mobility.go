package netsim

import "time"

// JitterMover moves each node randomly within a fixed radius of its
// home position, preserving link-level connectivity (parent/child
// distances stay bounded) while producing the RSSI variation that
// characterizes a mobile network. It is the mobility model of the
// replication experiment: topology-safe, observably mobile.
type JitterMover struct {
	sim *Sim
	// nodes and homes are parallel, in the order the mover was built
	// from: every step draws from the seeded sim RNG per node, so the
	// walk order decides which node gets which draw.
	nodes  []*Node
	homes  []Position
	radius float64
	active bool
}

// NewJitterMover creates a mover; each node's current position becomes
// its home.
func NewJitterMover(sim *Sim, nodes []*Node, radius float64) *JitterMover {
	homes := make([]Position, len(nodes))
	for i, n := range nodes {
		homes[i] = n.Pos
	}
	return &JitterMover{sim: sim, nodes: nodes, homes: homes, radius: radius}
}

// SetActive enables or disables movement. Disabling returns every node
// to its home position (the network settles back to static).
func (m *JitterMover) SetActive(v bool) {
	m.active = v
	if !v {
		for i, n := range m.nodes {
			n.MoveTo(m.homes[i])
		}
	}
}

// Active reports whether movement is enabled.
func (m *JitterMover) Active() bool { return m.active }

// Start schedules movement steps every interval beginning at start.
func (m *JitterMover) Start(start time.Time, interval time.Duration) {
	m.sim.Every(start, interval, func() bool {
		if !m.active {
			return true
		}
		for i, n := range m.nodes {
			if n.Revoked() {
				continue
			}
			home := m.homes[i]
			n.MoveTo(Position{
				X: home.X + (m.sim.rng.Float64()*2-1)*m.radius,
				Y: home.Y + (m.sim.rng.Float64()*2-1)*m.radius,
			})
		}
		return true
	})
}
