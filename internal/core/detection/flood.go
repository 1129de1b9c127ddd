package detection

import (
	"fmt"
	"sort"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// Registry names of the rate-based detection modules.
const (
	ICMPFloodName = "ICMPFloodModule"
	SmurfName     = "SmurfModule"
	SYNFloodName  = "SYNFloodModule"
)

// Kind masks for the victim windows shared through the flow table.
var (
	echoReplyMask = flow.MaskOf(packet.KindICMPEchoReply)
	tcpSYNMask    = flow.MaskOf(packet.KindTCPSYN)
)

// eventRSSIs extracts the RSSI samples of a victim window.
func eventRSSIs(evs []flow.Event) []float64 {
	out := make([]float64, len(evs))
	for i, e := range evs {
		out[i] = e.RSSI
	}
	return out
}

// meanEventRSSI returns the mean RSSI of a victim window.
func meanEventRSSI(evs []flow.Event) float64 {
	var sum float64
	for _, e := range evs {
		sum += e.RSSI
	}
	return sum / float64(len(evs))
}

// eventSrcs returns the distinct claimed sender identities of a victim
// window, in first-seen order.
//
//lint:coldpath runs only during gate-passed alert formation, cooldown-bounded
func eventSrcs(evs []flow.Event) []packet.NodeID {
	seen := make(map[packet.NodeID]bool)
	var out []packet.NodeID
	for _, e := range evs {
		if !seen[e.Src] {
			seen[e.Src] = true
			out = append(out, e.Src)
		}
	}
	return out
}

// rate is what the three rate-based detectors share: the victim-window
// length, the event threshold and the cooldown, and the handle on the
// flow layer's shared window.
type rate struct {
	base
	window    time.Duration
	minEvents int
	cooldown  time.Duration
	win       *flow.VictimWindow
}

// newRate reads the parameters "window", "cooldown" (durations) and
// "detectionThresh" (events per window, default 25).
func newRate(name string, p *module.ParamReader) rate {
	return rate{
		base:      base{name: name},
		window:    p.Duration("window", 5*time.Second),
		minEvents: p.Int("detectionThresh", 25),
		cooldown:  p.Duration("cooldown", 10*time.Second),
	}
}

// watch activates the module on the shared victim window for mask.
func (r *rate) watch(ctx *module.Context, mask flow.KindMask) {
	r.base.Activate(ctx)
	r.win = hold(&r.base, ctx.Flows.VictimWindow(mask, r.window))
}

// crossed reports whether the victim's window holds the threshold at
// now and the module may say so: passing arms the per-victim cooldown
// even if a knowledge veto then withholds the alert, one decision per
// burst.
func (r *rate) crossed(c *packet.Captured) bool {
	return r.win.Len(c.DstH, c.Nanos()) >= r.minEvents && r.gate.Pass(string(c.Dst), c.Time, r.cooldown)
}

// ICMPFlood detects ICMP Flood attacks: a high rate of ICMP Echo Reply
// messages to one victim (§III-A1). The rate evidence comes from the
// flow layer's shared victim window (updated once per packet before
// module fan-out). In knowledge-driven mode on a multi-hop network the
// module additionally verifies that the replies come from a single
// physical transmitter (one RSSI cluster) — the signature that
// distinguishes a flood (one attacker, many spoofed identities) from a
// Smurf (many real amplifiers); on single-hop networks the distinction
// is unnecessary because Smurf is impossible there. Without knowledge
// (traditional-IDS baseline) it is a naive symptom-only detector.
type ICMPFlood struct{ rate }

var _ module.Module = (*ICMPFlood)(nil)

// NewICMPFlood creates the module. Parameters: "window", "cooldown"
// (durations), "detectionThresh" (events per window, default 25).
func NewICMPFlood(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&ICMPFlood{newRate(ICMPFloodName, p)})
}

// WatchLabels implements module.Module.
func (d *ICMPFlood) WatchLabels() []string { return []string{knowledge.LabelMediums} }

// Required implements module.Module: ICMP floods need IP traffic,
// observed on the WiFi (or wired) medium.
func (d *ICMPFlood) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumWiFi) || hasMedium(kb, packet.MediumWired)
}

// Activate implements module.Module.
func (d *ICMPFlood) Activate(ctx *module.Context) { d.watch(ctx, echoReplyMask) }

// HandlePacket implements module.Module.
func (d *ICMPFlood) HandlePacket(c *packet.Captured) {
	if c.Kind != packet.KindICMPEchoReply || !d.crossed(c) {
		return
	}
	evs := d.win.Events(c.DstH, c.Nanos())
	confidence := 0.7
	if d.knowledgeDriven() {
		if boolIs(d.ctx.KB, knowledge.LabelMultihop, true) {
			// Multi-hop variant: a flood has one physical source, so
			// the replies' RSSI spread stays near the shadowing level.
			if rssiStdDev(eventRSSIs(evs)) > 2.0 {
				return
			}
		}
		confidence = 0.95
	}
	suspects := d.suspects(evs)
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.ICMPFlood,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   suspects,
		Confidence: confidence,
		Details:    fmt.Sprintf("%d echo replies to %s within %s", len(evs), packet.CleanID(c.Dst), d.window),
	})
}

// suspects identifies the physical attacker by matching the flood
// frames' signal strength against the historical fingerprints of
// monitored entities. The identities the flood claims as senders are
// excluded: their fingerprints are contaminated by the attack itself
// (the spoofed frames update them at the attacker's RSSI). The spoofed
// sender identities are the naive fallback.
func (d *ICMPFlood) suspects(evs []flow.Event) []packet.NodeID {
	srcs := eventSrcs(evs)
	if d.knowledgeDriven() {
		exclude := make(map[packet.NodeID]bool, len(srcs))
		for _, s := range srcs {
			exclude[s] = true
		}
		mean := meanEventRSSI(evs)
		if m := fingerprintMatch(d.ctx.KB, mean, 3, exclude); len(m) > 0 {
			return m[:1]
		}
	}
	return srcs
}

// Smurf detects Smurf attacks: a high rate of ICMP Echo Reply messages
// to one victim produced by many real amplifier nodes (§III-A1). The
// rate evidence comes from the flow layer's shared victim window — the
// same window the ICMP-flood module reads, updated once per packet for
// both. In knowledge-driven mode it requires several distinct physical
// transmitters (≥3 RSSI clusters); without knowledge it is symptom-only
// and therefore indistinguishable from ICMPFlood — exactly the
// ambiguity the paper attributes to the traditional IDS.
type Smurf struct {
	rate
	// edges is the module-local communication graph used for the
	// 2-hop suspect heuristic (maintained from observed traffic, so it
	// works even without a Knowledge Base), found by identity handle.
	edges packet.ByHandle[smurfNode]
}

// smurfNode is one entity of the Smurf module's communication graph.
type smurfNode struct {
	id  packet.NodeID
	nbr map[packet.Handle]struct{}
	// sweepAt is the neighbour count at which neighbours whose identity
	// was evicted are dropped.
	sweepAt int
}

// minNeighbourSweep is the neighbour count below which a node's
// neighbours are never swept.
const minNeighbourSweep = 1024

var _ module.Module = (*Smurf)(nil)

// NewSmurf creates the module. Parameters as NewICMPFlood.
func NewSmurf(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Smurf{rate: newRate(SmurfName, p)})
}

// WatchLabels implements module.Module.
func (d *Smurf) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMultihop}
}

// Required implements module.Module: "the Smurf attack is not possible
// in single-hop networks" (§III-A1) — the module is needed only on
// multi-hop IP networks.
func (d *Smurf) Required(kb *knowledge.Base) bool {
	ip := hasMedium(kb, packet.MediumWiFi) || hasMedium(kb, packet.MediumWired)
	return ip && boolIs(kb, knowledge.LabelMultihop, true)
}

// Activate implements module.Module.
func (d *Smurf) Activate(ctx *module.Context) {
	d.watch(ctx, echoReplyMask)
	d.edges.Reset()
}

// HandlePacket implements module.Module.
func (d *Smurf) HandlePacket(c *packet.Captured) {
	d.observeEdge(c)
	if c.Kind != packet.KindICMPEchoReply || !d.crossed(c) {
		return
	}
	evs := d.win.Events(c.DstH, c.Nanos())
	confidence := 0.7
	if d.knowledgeDriven() {
		// Smurf replies come from several distinct amplifiers. The
		// small gap tolerance is deliberate: accidental splits only
		// raise the count (harmless for a ≥3 test) while merges, the
		// failure mode, need a chain of extreme shadowing outliers.
		if clusterRSSI(eventRSSIs(evs), 2.0) < 3 {
			return
		}
		confidence = 0.9
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Smurf,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   d.suspects(c.DstH, c.Dst),
		Confidence: confidence,
		Details:    fmt.Sprintf("%d amplified echo replies to %s within %s", len(evs), packet.CleanID(c.Dst), d.window),
	})
}

func (d *Smurf) observeEdge(c *packet.Captured) {
	if c.SrcH == 0 || c.DstH == 0 || c.Dst == packet.Broadcast {
		return
	}
	d.link(c.SrcH, c.Src, c.DstH)
	d.link(c.DstH, c.Dst, c.SrcH)
}

// link records nb as a neighbour of the entity (h, id). A victim's
// neighbours are attacker-chosen sources, so the set is bounded like the
// identity table: once it has doubled since its last sweep, neighbours
// whose identity was evicted are dropped.
func (d *Smurf) link(h packet.Handle, id packet.NodeID, nb packet.Handle) {
	n, fresh := d.edges.Put(h)
	if fresh {
		*n = smurfNode{id: id, nbr: make(map[packet.Handle]struct{}), sweepAt: minNeighbourSweep}
	}
	if _, known := n.nbr[nb]; known {
		return
	}
	n.nbr[nb] = struct{}{}
	if len(n.nbr) >= n.sweepAt {
		for e := range n.nbr {
			if !packet.Live(e) {
				delete(n.nbr, e)
			}
		}
		n.sweepAt = max(minNeighbourSweep, 2*len(n.nbr))
	}
}

// suspects implements the paper's heuristic: "the Smurf attack
// detection module considers as suspect all nodes at a 2-hop distance
// from the victim" over the module's observed communication graph.
//
//lint:coldpath 2-hop suspect enumeration runs once per gate-passed Smurf alert, cooldown-bounded
func (d *Smurf) suspects(victimH packet.Handle, victim packet.NodeID) []packet.NodeID {
	dist := map[packet.Handle]int{victimH: 0}
	queue := []packet.Handle{victimH}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := d.edges.Get(cur)
		if dist[cur] >= 2 || n == nil {
			continue
		}
		for nb := range n.nbr {
			if _, seen := dist[nb]; !seen && d.edges.Get(nb) != nil {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	var out []packet.NodeID
	for h, dd := range dist {
		if dd == 2 {
			out = append(out, d.edges.Get(h).id)
		}
	}
	if len(out) == 0 {
		// Simplistic graph exploration collapses to the victim itself
		// (the paper's §VI-B1 anecdote: revoking it disconnects the
		// network).
		out = []packet.NodeID{victim}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SYNFlood detects TCP SYN flood attacks: a high rate of connection-
// opening SYNs to one destination whose initiators never complete the
// handshake (spoofed sources cannot send the third ACK). Both evidence
// streams — the SYN rate window and the handshake-completion ledger —
// come from the flow layer's shared trackers.
type SYNFlood struct {
	rate
	hs *flow.TCPHandshakes
}

var _ module.Module = (*SYNFlood)(nil)

// NewSYNFlood creates the module. Parameters as NewICMPFlood
// (detectionThresh default 25).
func NewSYNFlood(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&SYNFlood{rate: newRate(SYNFloodName, p)})
}

// WatchLabels implements module.Module.
func (d *SYNFlood) WatchLabels() []string { return []string{knowledge.LabelMediums} }

// Required implements module.Module.
func (d *SYNFlood) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumWiFi) || hasMedium(kb, packet.MediumWired)
}

// Activate implements module.Module.
func (d *SYNFlood) Activate(ctx *module.Context) {
	d.watch(ctx, tcpSYNMask)
	d.hs = hold(&d.base, ctx.Flows.Handshakes(d.window))
}

// HandlePacket implements module.Module.
func (d *SYNFlood) HandlePacket(c *packet.Captured) {
	if c.Kind != packet.KindTCPSYN || !d.crossed(c) {
		return
	}
	evs := d.win.Events(c.DstH, c.Nanos())
	// A legitimate burst completes handshakes; a flood leaves them
	// half-open.
	if d.hs.Completions(c.DstH, c.Nanos()) >= len(evs)/2 {
		return
	}
	suspects := eventSrcs(evs)
	confidence := 0.7
	if d.knowledgeDriven() {
		exclude := make(map[packet.NodeID]bool, len(suspects))
		for _, s := range suspects {
			exclude[s] = true
		}
		mean := meanEventRSSI(evs)
		if m := fingerprintMatch(d.ctx.KB, mean, 3, exclude); len(m) > 0 {
			suspects = m[:1]
		}
		confidence = 0.9
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.SYNFlood,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   suspects,
		Confidence: confidence,
		Details:    fmt.Sprintf("%d half-open SYNs to %s within %s", len(evs), packet.CleanID(c.Dst), d.window),
	})
}
