package detection

import (
	"fmt"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
	"kalis/internal/proto/sixlowpan"
)

// SinkholeName is the registry name of the sinkhole-detection module.
const SinkholeName = "SinkholeModule"

// Sinkhole detects sinkhole attacks on collection/RPL routing: a
// malicious node advertises an implausibly attractive route cost (CTP
// beacon ETX, RPL DIO rank) to pull traffic towards itself. The module
// learns each advertiser's cost baseline and the legitimate root's
// cost, and alerts when a non-root advertiser suddenly claims a cost in
// the root's band or far below its own baseline.
type Sinkhole struct {
	base
	// dropFactor is the fraction of its own baseline below which an
	// advertisement is suspicious (default 0.4).
	dropFactor float64
	// rootBand is the cost at or below which only roots may advertise.
	rootBand uint16
	// minObservations per advertiser before its baseline is trusted.
	minObservations int
	// learn is the initial period during which root-band advertisers
	// are accepted as legitimate collection roots.
	learn    time.Duration
	cooldown time.Duration

	started bool
	firstAt int64 // capture nanoseconds of the first packet
	// advertisers holds each advertiser's baseline, found by identity
	// handle; a learned root stays one when a flood of spoofed
	// identities evicts it from the identity table.
	advertisers packet.Sticky[advertiser]
}

// advertiser is one route-cost advertiser's learned state.
type advertiser struct {
	baseline float64
	count    int
	root     bool
}

var _ module.Module = (*Sinkhole)(nil)

// NewSinkhole creates the module. Parameters: "dropFactor" (float,
// default 0.4), "rootBand" (int, default 2), "cooldown" (duration).
func NewSinkhole(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Sinkhole{
		base:            base{name: SinkholeName},
		dropFactor:      p.Float("dropFactor", 0.4),
		rootBand:        uint16(p.Int("rootBand", 2)),
		minObservations: 2,
		learn:           p.Duration("learn", 45*time.Second),
		cooldown:        p.Duration("cooldown", 20*time.Second),
	})
}

// WatchLabels implements module.Module.
func (d *Sinkhole) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMultihop}
}

// Required implements module.Module: sinkholes are a routing attack —
// they need a multi-hop collection topology.
func (d *Sinkhole) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) && boolIs(kb, knowledge.LabelMultihop, true)
}

// Activate implements module.Module.
func (d *Sinkhole) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.started = false
	d.advertisers.Reset()
}

// HandlePacket implements module.Module.
func (d *Sinkhole) HandlePacket(c *packet.Captured) {
	now := c.Nanos()
	if !d.started {
		d.started, d.firstAt = true, now
	}
	cost, ok := advertisedCost(c)
	if !ok || c.TransmitterH == 0 {
		return
	}
	id := c.Transmitter
	a, _, _ := d.advertisers.Put(c.TransmitterH, id)
	n := a.count

	// During the learning period, root-band advertisers are accepted
	// as the legitimate collection roots.
	learning := now-d.firstAt <= int64(d.learn)
	if cost <= float64(d.rootBand) && learning {
		a.root = true
	}
	if a.root {
		return
	}

	inRootBand := cost <= float64(d.rootBand)
	fellBelow := !inRootBand &&
		n >= d.minObservations && a.baseline > 0 && cost < a.baseline*d.dropFactor
	prev := a.baseline

	a.count = n + 1
	if !inRootBand && !fellBelow {
		// Update the baseline only with sane advertisements.
		if a.baseline == 0 {
			a.baseline = cost
		} else {
			a.baseline += 0.3 * (cost - a.baseline)
		}
		return
	}
	if !d.gate.Pass(string(id), c.Time, d.cooldown) {
		return
	}
	// Reason formatting happens only past the cooldown gate: at most
	// once per suspect per cooldown window, never per packet.
	var reason string
	if inRootBand {
		//lint:ignore hotpath cooldown-gated alert emission, at most one format per suspect per window
		reason = fmt.Sprintf("non-root advertises root-band cost %.0f", cost)
	} else {
		//lint:ignore hotpath cooldown-gated alert emission, at most one format per suspect per window
		reason = fmt.Sprintf("advertised cost fell from %.0f to %.0f", prev, cost)
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Sinkhole,
		Module:     d.Name(),
		Suspects:   []packet.NodeID{id},
		Confidence: 0.85,
		Details:    reason,
	})
}

// advertisedCost extracts a route-cost advertisement from the capture.
func advertisedCost(c *packet.Captured) (float64, bool) {
	if b, ok := c.Layer("ctp-beacon").(*ctp.Beacon); ok {
		return float64(b.ETX), true
	}
	if m, ok := c.Layer("rpl").(*sixlowpan.RPLMessage); ok && m.Type == sixlowpan.RPLDIO {
		return float64(m.Rank), true
	}
	return 0, false
}
