package detection

import (
	"slices"
	"strconv"
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

// meanEventRSSI returns the mean RSSI of a victim window.
func meanEventRSSI(evs []flow.Event) float64 {
	var sum float64
	for _, e := range evs {
		sum += e.RSSI
	}
	return sum / float64(len(evs))
}

// evidence is a rate detector's alert-time scratch, reused from one
// alert to the next so that forming an alert allocates only its
// Suspects slice and Details string: the victim window's events, their
// RSSIs, the distinct claimed senders (in first-seen order, and as a
// set that doubles as the fingerprint exclusion set), the fingerprint
// read and the rendered event count.
type evidence struct {
	evs  []flow.Event
	rssi []float64
	srcs []packet.NodeID
	seen map[packet.NodeID]bool
	fp   fingerprints
	num  [20]byte
}

// load reads the victim's window ending at c's capture time.
func (e *evidence) load(win *flow.VictimWindow, c *packet.Captured) []flow.Event {
	e.evs = win.Events(e.evs[:0], c.DstH, c.Nanos())
	return e.evs
}

// samples returns the loaded events' RSSIs.
func (e *evidence) samples() []float64 {
	e.rssi = e.rssi[:0]
	for _, ev := range e.evs {
		e.rssi = append(e.rssi, ev.RSSI)
	}
	return e.rssi
}

// sources returns the distinct claimed senders of the loaded events,
// in first-seen order, and leaves them in the seen set.
func (e *evidence) sources() []packet.NodeID {
	if e.seen == nil {
		e.seen = make(map[packet.NodeID]bool)
	}
	clear(e.seen)
	e.srcs = e.srcs[:0]
	for _, ev := range e.evs {
		if !e.seen[ev.Src] {
			e.seen[ev.Src] = true
			e.srcs = append(e.srcs, ev.Src)
		}
	}
	return e.srcs
}

// count renders n into the scratch. Converted to a string inside a
// concatenation the bytes are borrowed, not copied, so a Details string
// costs one allocation however large n is.
func (e *evidence) count(n int) []byte { return strconv.AppendInt(e.num[:0], int64(n), 10) }

// rate is what the three rate-based detectors share: the victim-window
// length, the event threshold and the cooldown, the handle on the flow
// layer's shared window and the scratch an alert is formed in.
type rate struct {
	base
	window     time.Duration
	windowText string // window as an alert's Details renders it
	minEvents  int
	cooldown   time.Duration
	win        *flow.VictimWindow
	ev         evidence
}

// newRate reads the parameters "window", "cooldown" (durations) and
// "detectionThresh" (events per window, default 25).
func newRate(b base, p *module.ParamReader) rate {
	r := rate{
		base:      b,
		window:    p.Duration("window", 5*time.Second),
		minEvents: p.Int("detectionThresh", 25),
		cooldown:  p.Duration("cooldown", 10*time.Second),
	}
	r.windowText = r.window.String()
	return r
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

// suspects identifies the physical attacker by matching the loaded
// window's signal strength against the historical fingerprints of
// monitored entities. The identities the flood claims as senders are
// excluded: their fingerprints are contaminated by the attack itself
// (the spoofed frames update them at the attacker's RSSI). The spoofed
// sender identities are the naive fallback.
func (r *rate) suspects() []packet.NodeID {
	srcs := r.ev.sources()
	if r.knowledgeDriven() {
		if m := fingerprintMatch(r.ctx.KB, meanEventRSSI(r.ev.evs), 3, r.ev.seen, &r.ev.fp); len(m) > 0 {
			return m[:1]
		}
	}
	return append([]packet.NodeID(nil), srcs...)
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
	return p.Done(&ICMPFlood{newRate(base{name: ICMPFloodName, attack: attack.ICMPFlood}, p)})
}

// Activate implements module.Module.
func (d *ICMPFlood) Activate(ctx *module.Context) { d.watch(ctx, echoReplyMask) }

// HandlePacket implements module.Module.
func (d *ICMPFlood) HandlePacket(c *packet.Captured) {
	if c.Kind != packet.KindICMPEchoReply || !d.crossed(c) {
		return
	}
	evs := d.ev.load(d.win, c)
	confidence := 0.7
	if d.knowledgeDriven() {
		if boolIs(d.ctx.KB, knowledge.LabelMultihop, true) {
			// Multi-hop variant: a flood has one physical source, so
			// the replies' RSSI spread stays near the shadowing level.
			if rssiStdDev(d.ev.samples()) > 2.0 {
				return
			}
		}
		confidence = 0.95
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.ICMPFlood,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   d.suspects(),
		Confidence: confidence,
		Details:    string(d.ev.count(len(evs))) + " echo replies to " + packet.CleanID(c.Dst) + " within " + d.windowText,
	})
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
	// hops and queue are the 2-hop search's scratch, reused from one
	// alert to the next.
	hops  map[packet.Handle]int
	queue []packet.Handle
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
	return p.Done(&Smurf{rate: newRate(base{name: SmurfName, attack: attack.Smurf}, p)})
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
	evs := d.ev.load(d.win, c)
	confidence := 0.7
	if d.knowledgeDriven() {
		// Smurf replies come from several distinct amplifiers. The
		// small gap tolerance is deliberate: accidental splits only
		// raise the count (harmless for a ≥3 test) while merges, the
		// failure mode, need a chain of extreme shadowing outliers.
		if clusterRSSI(d.ev.samples(), 2.0) < 3 {
			return
		}
		confidence = 0.9
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Smurf,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   d.twoHop(c.DstH, c.Dst),
		Confidence: confidence,
		Details:    string(d.ev.count(len(evs))) + " amplified echo replies to " + packet.CleanID(c.Dst) + " within " + d.windowText,
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

// twoHop implements the paper's heuristic: "the Smurf attack detection
// module considers as suspect all nodes at a 2-hop distance from the
// victim" over the module's observed communication graph.
func (d *Smurf) twoHop(victimH packet.Handle, victim packet.NodeID) []packet.NodeID {
	if d.hops == nil {
		d.hops = make(map[packet.Handle]int)
	}
	clear(d.hops)
	d.hops[victimH] = 0
	d.queue = append(d.queue[:0], victimH)
	found := 0
	for i := 0; i < len(d.queue); i++ {
		cur := d.queue[i]
		n := d.edges.Get(cur)
		if d.hops[cur] >= 2 || n == nil {
			continue
		}
		for nb := range n.nbr {
			if _, seen := d.hops[nb]; !seen && d.edges.Get(nb) != nil {
				d.hops[nb] = d.hops[cur] + 1
				d.queue = append(d.queue, nb)
				if d.hops[nb] == 2 {
					found++
				}
			}
		}
	}
	out := make([]packet.NodeID, 0, max(found, 1))
	for h, dd := range d.hops {
		if dd == 2 {
			out = append(out, d.edges.Get(h).id)
		}
	}
	if len(out) == 0 {
		// Simplistic graph exploration collapses to the victim itself
		// (the paper's §VI-B1 anecdote: revoking it disconnects the
		// network).
		out = append(out, victim)
	}
	slices.Sort(out)
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
	return p.Done(&SYNFlood{rate: newRate(base{name: SYNFloodName, attack: attack.SYNFlood}, p)})
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
	evs := d.ev.load(d.win, c)
	// A legitimate burst completes handshakes; a flood leaves them
	// half-open.
	if d.hs.Completions(c.DstH, c.Nanos()) >= len(evs)/2 {
		return
	}
	confidence := 0.7
	if d.knowledgeDriven() {
		confidence = 0.9
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.SYNFlood,
		Module:     d.Name(),
		Victim:     c.Dst,
		Suspects:   d.suspects(),
		Confidence: confidence,
		Details:    string(d.ev.count(len(evs))) + " half-open SYNs to " + packet.CleanID(c.Dst) + " within " + d.windowText,
	})
}
