package detection

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// WormholeName is the registry name of the wormhole-detection module.
const WormholeName = "WormholeModule"

// Wormhole detects colluding wormhole endpoints through collective
// knowledge (§VI-D): one Kalis node observes endpoint B1 swallowing
// traffic (a blackhole symptom, shared as SuspectBlackhole knowggets by
// the Blackhole module), another observes endpoint B2 emitting traffic
// whose origins it was never seen receiving (an "emergent source",
// published by this module). When both knowggets are present — locally
// or via peers — and their origin sets overlap, the pair is classified
// as a wormhole rather than two unrelated anomalies.
type Wormhole struct {
	base
	// minEmergent is how many unexplained origin frames a transmitter
	// must emit before being published as an emergent source.
	minEmergent int
	cooldown    time.Duration

	// received holds, per relay, the origins overheard being handed
	// *to* it; emitted, per transmitter, the origins it forwarded
	// without having received them. Both are found by identity handle.
	received packet.ByHandle[map[uint16]bool]
	emitted  packet.ByHandle[emission]
	alerted  map[string]bool

	// sinks and sources mirror the SuspectBlackhole / EmergentSource
	// knowggets (local and collective), maintained incrementally from
	// HandleKnowledge — scanning the whole base per packet would be far
	// too expensive.
	sinks   map[packet.NodeID]map[string]bool
	sources map[packet.NodeID]map[string]bool
	dirty   bool
}

// emission is a transmitter's unexplained forwarding.
type emission struct {
	id      packet.NodeID
	origins map[uint16]int
	total   int
	// last is when the transmitter last showed fresh emergent activity
	// (capture nanoseconds; emergent set once it has); pairs re-alert
	// only on fresh evidence (or on the first correlation, which may be
	// entirely knowledge-driven on the blackhole-side Kalis node).
	last     int64
	emergent bool
}

var (
	_ module.Module           = (*Wormhole)(nil)
	_ module.KnowledgeHandler = (*Wormhole)(nil)
)

// NewWormhole creates the module. Parameters: "minEmergent" (int,
// default 5), "cooldown" (duration).
func NewWormhole(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Wormhole{
		base:        base{name: WormholeName},
		minEmergent: p.Int("minEmergent", 5),
		cooldown:    p.Duration("cooldown", 30*time.Second),
	})
}

// WatchLabels implements module.Module. The blackhole suspicions and
// emergent sources the module correlates do not decide Required; those
// are its KnowledgeLabels.
func (d *Wormhole) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMultihop}
}

// KnowledgeLabels implements module.KnowledgeHandler.
func (d *Wormhole) KnowledgeLabels() []string {
	return []string{knowledge.LabelSuspectBlackhole, knowledge.LabelEmergentSource}
}

// Required implements module.Module.
func (d *Wormhole) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) && boolIs(kb, knowledge.LabelMultihop, true)
}

// Activate implements module.Module.
func (d *Wormhole) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.received.Reset()
	d.emitted.Reset()
	d.alerted = make(map[string]bool)
	d.sinks = make(map[packet.NodeID]map[string]bool)
	d.sources = make(map[packet.NodeID]map[string]bool)
	d.dirty = false
	// Seed the mirrors from knowledge that predates activation; changes
	// arrive through HandleKnowledge from here on.
	for _, kg := range ctx.KB.Snapshot() {
		d.HandleKnowledge(kg)
	}
}

// HandleKnowledge implements module.KnowledgeHandler: it mirrors one
// blackhole suspicion or emergent source.
func (d *Wormhole) HandleKnowledge(kg knowledge.Knowgget) {
	switch kg.Label {
	case knowledge.LabelSuspectBlackhole:
		d.sinks[packet.NodeID(kg.Entity)] = originSet(kg.Value)
		d.dirty = true
	case knowledge.LabelEmergentSource:
		d.sources[packet.NodeID(kg.Entity)] = originSet(kg.Value)
		d.dirty = true
	}
}

// HandlePacket implements module.Module.
func (d *Wormhole) HandlePacket(c *packet.Captured) {
	data, ok := c.Layer("ctp-data").(*ctp.Data)
	if !ok {
		d.maybeCorrelate(c.Time)
		return
	}
	// Record hand-offs: the link destination has now "received" the
	// origin's traffic.
	if c.DstH != 0 && c.Dst != packet.Broadcast {
		got, _ := d.received.Put(c.DstH)
		if *got == nil {
			*got = make(map[uint16]bool)
		}
		(*got)[data.Origin] = true
	}
	// A transmitter forwarding traffic (THL > 0) whose origin it was
	// never handed locally is an emergent source. A node retransmitting
	// its *own* origin is a different anomaly (replication/looping),
	// not tunnelled third-party traffic — it is exempt here.
	tx := c.TransmitterH
	if data.THL > 0 && tx != 0 && tx != c.SrcH && !d.handedTo(tx, data.Origin) {
		e, fresh := d.emitted.Put(tx)
		if fresh {
			e.id, e.origins = c.Transmitter, make(map[uint16]int)
		}
		e.origins[data.Origin]++
		e.total++
		if e.total >= d.minEmergent {
			e.last, e.emergent = c.Nanos(), true
			d.dirty = true
			if d.knowledgeDriven() && e.total == d.minEmergent {
				// Mirrored here as well as published: the knowgget comes
				// back through the manager at the next packet boundary,
				// and this frame's pairing pass should already see it.
				kg := knowledge.Knowgget{Label: knowledge.LabelEmergentSource, Entity: packet.CleanID(c.Transmitter), Value: originsOf(e)}
				d.HandleKnowledge(kg)
				d.ctx.KB.PutCollective(kg.Label, kg.Entity, kg.Value)
			}
		}
	}
	d.maybeCorrelate(c.Time)
}

// maybeCorrelate runs the pairing pass only when the mirrors changed
// or fresh emergent evidence arrived.
func (d *Wormhole) maybeCorrelate(now time.Time) {
	if !d.dirty {
		return
	}
	d.dirty = false
	d.correlate(now)
}

// handedTo reports whether the relay was overheard being handed a
// frame of the origin.
func (d *Wormhole) handedTo(relay packet.Handle, origin uint16) bool {
	got := d.received.Get(relay)
	return got != nil && (*got)[origin]
}

// lastEmergent is when the named emergent source last showed fresh
// activity here.
func (d *Wormhole) lastEmergent(id packet.NodeID) (last int64, ok bool) {
	d.emitted.Range(func(_ packet.Handle, _ bool, e *emission) {
		if e.emergent && e.id == id {
			last, ok = e.last, true
		}
	})
	return last, ok
}

//lint:coldpath runs once per emergent-source promotion (and on dirty-gated re-publication), not per packet
func originsOf(e *emission) string {
	var ids []int
	for o := range e.origins {
		ids = append(ids, int(o))
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, o := range ids {
		parts[i] = strconv.Itoa(o)
	}
	return strings.Join(parts, ",")
}

// correlate pairs blackhole suspicions with emergent sources across the
// mirrored knowledge (local and collective).
//
//lint:coldpath the pairing pass is dirty-flag-gated: it runs when mirrored knowledge or emergent evidence changes, not per packet
func (d *Wormhole) correlate(now time.Time) {
	if !d.knowledgeDriven() {
		return // correlation is knowledge; the naive baseline has none
	}
	sinkIDs := sortedKeys(d.sinks)
	sourceIDs := sortedKeys(d.sources)
	for _, sID := range sinkIDs {
		for _, eID := range sourceIDs {
			if sID == eID || !overlap(d.sinks[sID], d.sources[eID]) {
				continue
			}
			pair := string(sID) + "+" + string(eID)
			if d.alerted[pair] {
				// Re-alert only on fresh local emergent activity (the
				// far-side Kalis node has none and reports once).
				last, ok := d.lastEmergent(eID)
				if !ok || now.UnixNano()-last > int64(d.cooldown/2) {
					continue
				}
			}
			if !d.gate.Pass(pair, now, d.cooldown) {
				continue
			}
			d.alerted[pair] = true
			d.ctx.Emit(module.Alert{
				Time:       now,
				Attack:     attack.Wormhole,
				Module:     d.Name(),
				Suspects:   []packet.NodeID{sID, eID},
				Confidence: 0.9,
				Details: fmt.Sprintf("blackhole at %s correlates with emergent source %s (shared origins)",
					sID, eID),
			})
		}
	}
}

func sortedKeys(m map[packet.NodeID]map[string]bool) []packet.NodeID {
	out := make([]packet.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func originSet(v string) map[string]bool {
	out := make(map[string]bool)
	for _, part := range strings.Split(v, ",") {
		if part != "" {
			out[part] = true
		}
	}
	return out
}

func overlap(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}
