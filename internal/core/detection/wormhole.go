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

	// received maps relay → origins overheard being handed *to* it.
	received map[packet.NodeID]map[uint16]bool
	// emitted maps transmitter → origins it forwarded, with counts.
	emitted map[packet.NodeID]map[uint16]int
	// lastEmergent is when each emergent source last showed fresh
	// activity; pairs re-alert only on fresh evidence (or on the first
	// correlation, which may be entirely knowledge-driven on the
	// blackhole-side Kalis node).
	lastEmergent map[packet.NodeID]time.Time
	alerted      map[string]bool

	// sinks and sources mirror the SuspectBlackhole / EmergentSource
	// knowggets (local and collective), maintained incrementally from
	// HandleKnowledge — scanning the whole base per packet would be far
	// too expensive.
	sinks   map[packet.NodeID]map[string]bool
	sources map[packet.NodeID]map[string]bool
	dirty   bool
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
	d.received = make(map[packet.NodeID]map[uint16]bool)
	d.emitted = make(map[packet.NodeID]map[uint16]int)
	d.lastEmergent = make(map[packet.NodeID]time.Time)
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
	if c.Dst != packet.Broadcast && c.Dst != "" {
		if d.received[c.Dst] == nil {
			d.received[c.Dst] = make(map[uint16]bool)
		}
		d.received[c.Dst][data.Origin] = true
	}
	// A transmitter forwarding traffic (THL > 0) whose origin it was
	// never handed locally is an emergent source. A node retransmitting
	// its *own* origin is a different anomaly (replication/looping),
	// not tunnelled third-party traffic — it is exempt here.
	tx := c.Transmitter
	if data.THL > 0 && tx != "" && tx != c.Src && !d.received[tx][data.Origin] {
		if d.emitted[tx] == nil {
			d.emitted[tx] = make(map[uint16]int)
		}
		d.emitted[tx][data.Origin]++
		if d.total(tx) >= d.minEmergent {
			d.lastEmergent[tx] = c.Time
			d.dirty = true
			if d.knowledgeDriven() && d.total(tx) == d.minEmergent {
				// Mirrored here as well as published: the knowgget comes
				// back through the manager at the next packet boundary,
				// and this frame's pairing pass should already see it.
				kg := knowledge.Knowgget{Label: knowledge.LabelEmergentSource, Entity: packet.CleanID(tx), Value: d.originsOf(tx)}
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

func (d *Wormhole) total(tx packet.NodeID) int {
	sum := 0
	for _, n := range d.emitted[tx] {
		sum += n
	}
	return sum
}

//lint:coldpath runs once per emergent-source promotion (and on dirty-gated re-publication), not per packet
func (d *Wormhole) originsOf(tx packet.NodeID) string {
	var ids []int
	for o := range d.emitted[tx] {
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
				last, ok := d.lastEmergent[eID]
				if !ok || now.Sub(last) > d.cooldown/2 {
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
