// Package devices provides traffic-behaviour models for the
// heterogeneous IoT testbed of the paper's evaluation (§VI-A): a WSN of
// CTP motes plus commodity smart-home devices (thermostat, smart lock,
// light bulb, camera, dash button) and their cloud/hub counterparts.
//
// Each model emits protocol-correct frames through internal/proto/stack
// onto the simulated medium; what Kalis observes from these models has
// the same shape (rates, headers, routing fields, RSSI) a real
// deployment would exhibit.
package devices

import (
	"fmt"
	"time"

	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/stack"
)

// Mote is a TinyOS-style WSN mote running a CTP collection application:
// it originates a data message every interval towards the base station
// and forwards data received from its children to its parent,
// incrementing THL at each hop. The paper's WSN sends "a data message
// every 3 seconds towards a node acting as base station" (§VI-A).
type Mote struct {
	node *netsim.Node
	// Parent is the next-hop address towards the base station.
	Parent uint16
	// Base reports whether this mote is the base station (sink).
	Base bool
	// Interval is the data-origination period (default 3 s).
	Interval time.Duration
	// ETX is the route cost this mote advertises in beacons.
	ETX uint16
	// DropForward, when non-nil, decides whether a received data frame
	// is silently dropped instead of forwarded — the hook the
	// selective-forwarding and blackhole attack injectors use.
	DropForward func(*ctp.Data) bool
	// ForwardTruth, when non-nil, labels forwarded frames; used by
	// attack injectors so that the *absence* symptom can be scored.
	ForwardTruth func(*ctp.Data) *packet.GroundTruth
	// MutateForward, when non-nil, replaces the payload of a frame
	// before forwarding it — the hook the data-alteration injector
	// uses.
	MutateForward func(*ctp.Data) []byte
	// Adaptive enables CTP parent selection from overheard beacons:
	// the mote picks the neighbour minimizing advertised cost plus an
	// RSSI-derived link cost, and re-advertises its own cost. With
	// adaptive routing on, a sinkhole's lying advertisement really
	// attracts traffic.
	Adaptive bool

	// neighbour state for adaptive routing.
	advCost   map[uint16]uint16
	linkRSSI  map[uint16]float64
	lastHeard map[uint16]time.Time
	// Delivered counts data frames that reached this mote as final
	// destination (meaningful on the base station).
	Delivered int
	// Originated counts data frames this mote originated.
	Originated int
	// OnDeliver, when non-nil, is invoked for every data frame
	// delivered to this mote as base station.
	OnDeliver func(*ctp.Data)

	seq      uint8
	beaconSq uint8
}

// NewMote creates a mote bound to the given simulated node.
func NewMote(node *netsim.Node, parent uint16, base bool) *Mote {
	m := &Mote{node: node, Parent: parent, Base: base, Interval: 3 * time.Second, ETX: 10}
	if base {
		m.ETX = 0 // collection roots advertise zero route cost
	}
	node.OnReceive(m.receive)
	return m
}

// Node returns the underlying simulated node.
func (m *Mote) Node() *netsim.Node { return m.node }

// Addr returns the mote's 802.15.4 short address.
func (m *Mote) Addr() uint16 { return m.node.Addr16 }

// Start schedules the mote's periodic data origination and routing
// beacons beginning at start.
func (m *Mote) Start(start time.Time) {
	sim := m.node.Sim()
	if !m.Base {
		sim.Every(start, m.Interval, func() bool {
			m.seq++
			m.Originated++
			raw := stack.BuildCTPData(m.node.Addr16, m.Parent, m.node.Addr16, m.seq, 0, m.ETX, []byte{0x01, m.seq})
			m.node.Send(packet.MediumIEEE802154, raw)
			return true
		})
	}
	// Routing beacons every 10× the data interval, offset to avoid
	// phase-locking with data traffic.
	sim.Every(start.Add(m.Interval/2), 10*m.Interval, func() bool {
		m.beaconSq++
		m.node.Send(packet.MediumIEEE802154, stack.BuildCTPBeacon(m.node.Addr16, m.Parent, m.ETX, m.beaconSq))
		return true
	})
}

func (m *Mote) receive(medium packet.Medium, raw []byte, _ *netsim.Node, rssi float64) {
	if medium != packet.MediumIEEE802154 {
		return
	}
	mac, err := ieee802154.Decode(raw)
	if err != nil {
		return
	}
	if m.Adaptive && !m.Base {
		if msg, err := ctp.Decode(mac.Payload); err == nil {
			if b, ok := msg.(*ctp.Beacon); ok {
				m.observeBeacon(mac.SrcShort, b, rssi)
			}
		}
	}
	if mac.DstShort != m.node.Addr16 {
		return
	}
	msg, err := ctp.Decode(mac.Payload)
	if err != nil {
		return
	}
	data, ok := msg.(*ctp.Data)
	if !ok {
		return
	}
	if m.Base {
		m.Delivered++
		if m.OnDeliver != nil {
			m.OnDeliver(data)
		}
		return
	}
	if m.DropForward != nil && m.DropForward(data) {
		return
	}
	// Forward towards the parent after a small processing delay,
	// incrementing the time-has-lived hop counter.
	payload := data.Payload
	if m.MutateForward != nil {
		payload = m.MutateForward(data)
	}
	fwd := stack.BuildCTPData(m.node.Addr16, m.Parent, data.Origin, data.SeqNo, data.THL+1, m.ETX, payload)
	var truth *packet.GroundTruth
	if m.ForwardTruth != nil {
		truth = m.ForwardTruth(data)
	}
	m.node.Sim().After(20*time.Millisecond, func() {
		m.node.SendTruth(packet.MediumIEEE802154, fwd, truth)
	})
}

// observeBeacon updates adaptive-routing state from an overheard
// beacon and re-selects the parent minimizing advertised cost plus an
// RSSI-derived link cost.
func (m *Mote) observeBeacon(from uint16, b *ctp.Beacon, rssi float64) {
	if from == m.node.Addr16 {
		return
	}
	if m.advCost == nil {
		m.advCost = make(map[uint16]uint16)
		m.linkRSSI = make(map[uint16]float64)
		m.lastHeard = make(map[uint16]time.Time)
	}
	now := m.node.Sim().Now()
	m.advCost[from] = b.ETX
	m.linkRSSI[from] = rssi
	m.lastHeard[from] = now

	// Entries not refreshed for three beacon periods are stale (the
	// advertiser left, failed, or was revoked) and age out. A cost tie
	// goes to the lower address, not to map order, so a run is a
	// function of its seed.
	staleAfter := 3 * 10 * m.Interval
	bestParent, bestCost := m.Parent, ^uint16(0)
	for nb, adv := range m.advCost {
		if now.Sub(m.lastHeard[nb]) > staleAfter {
			continue
		}
		cost := uint16(int(adv) + linkCost(m.linkRSSI[nb]))
		if cost < bestCost || cost == bestCost && nb < bestParent {
			bestParent, bestCost = nb, cost
		}
	}
	if bestCost != ^uint16(0) {
		m.Parent = bestParent
		m.ETX = bestCost
	}
}

// linkCost converts an RSSI to an ETX-style link cost (one good hop ≈
// 10): the expected transmission count rises sharply as the signal
// approaches the receiver sensitivity (−95 dBm).
func linkCost(rssi float64) int {
	margin := rssi + 95
	prr := margin / 10
	if prr > 1 {
		prr = 1
	}
	if prr < 0.05 {
		prr = 0.05
	}
	return int(10/prr + 0.5)
}

// BuildWSNLine creates a linear multi-hop WSN: base at x=0 and motes
// every spacing metres, each parented to the previous node. Returns
// the base station first.
func BuildWSNLine(sim *netsim.Sim, count int, spacing float64) []*Mote {
	motes := make([]*Mote, 0, count)
	for i := 0; i < count; i++ {
		addr := uint16(i + 1)
		n := sim.AddNode(&netsim.Node{
			Name:   moteName(i),
			Addr16: addr,
			Pos:    netsim.Position{X: float64(i) * spacing},
		})
		parent := addr - 1
		if i == 0 {
			parent = addr // base parents to itself
		}
		m := NewMote(n, parent, i == 0)
		if i > 0 {
			m.ETX = uint16(i * 10) // route cost grows with tree depth
		}
		motes = append(motes, m)
	}
	return motes
}

func moteName(i int) string {
	if i == 0 {
		return "base"
	}
	return fmt.Sprintf("mote-%02d", i)
}
