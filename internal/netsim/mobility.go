package netsim

import "time"

// RandomWaypoint moves a set of nodes with a random-waypoint-style
// pattern: every step interval each node jumps a random displacement
// bounded by maxStep within the given bounding box. It is the mobility
// substrate for the replication-attack experiment (§VI-B2), where the
// network "randomly changes between a static and mobile behavior".
type RandomWaypoint struct {
	sim                    *Sim
	nodes                  []*Node
	maxStep                float64
	minX, minY, maxX, maxY float64
	active                 bool
}

// NewRandomWaypoint creates a mover for the given nodes within the
// bounding box [minX,maxX]×[minY,maxY].
func NewRandomWaypoint(sim *Sim, nodes []*Node, maxStep, minX, minY, maxX, maxY float64) *RandomWaypoint {
	return &RandomWaypoint{
		sim: sim, nodes: nodes, maxStep: maxStep,
		minX: minX, minY: minY, maxX: maxX, maxY: maxY,
	}
}

// SetActive enables or disables movement. While inactive the network
// behaves statically.
func (m *RandomWaypoint) SetActive(v bool) { m.active = v }

// Active reports whether movement is enabled.
func (m *RandomWaypoint) Active() bool { return m.active }

// Start schedules movement steps every interval beginning at start.
func (m *RandomWaypoint) Start(start time.Time, interval time.Duration) {
	m.sim.Every(start, interval, func() bool {
		if !m.active {
			return true
		}
		for _, n := range m.nodes {
			if n.Revoked() {
				continue
			}
			nx := clamp(n.Pos.X+(m.sim.rng.Float64()*2-1)*m.maxStep, m.minX, m.maxX)
			ny := clamp(n.Pos.Y+(m.sim.rng.Float64()*2-1)*m.maxStep, m.minY, m.maxY)
			n.MoveTo(Position{X: nx, Y: ny})
		}
		return true
	})
}

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

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
