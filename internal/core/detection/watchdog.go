package detection

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// Registry names of the forwarding-watchdog modules.
const (
	SelectiveForwardingName = "SelectiveForwardingModule"
	BlackholeName           = "BlackholeModule"
)

// forwardingCore is what the two forwarding-watchdog modules share:
// parameters, the knowledge predicate and the handle on the flow
// layer's forwarding watch (flow.ForwardingWatch), which holds all the
// evidence — each module embeds its own core and adds only its band of
// the drop ratio and the verdict it raises there.
type forwardingCore struct {
	base
	cfg      flow.ForwardingConfig
	cooldown time.Duration

	watch *flow.ForwardingWatch
	// ratios is the reused read buffer for watch.Ratios.
	ratios []flow.RelayRatio
}

// newForwardingCore reads the parameters "timeout", "window",
// "cooldown" (durations) and "minSamples" (int, at least 1).
func newForwardingCore(name string, p *module.ParamReader) forwardingCore {
	return forwardingCore{
		base: base{name: name},
		cfg: flow.ForwardingConfig{
			Timeout:    p.Duration("timeout", 500*time.Millisecond),
			Window:     p.Duration("window", 30*time.Second),
			MinSamples: p.IntAtLeast("minSamples", 8, 1),
		},
		cooldown: p.Duration("cooldown", 20*time.Second),
	}
}

// WatchLabels implements module.Module.
func (f *forwardingCore) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMultihop}
}

// Required implements module.Module: "a selective forwarding attack
// cannot be carried out in a single-hop network" (§III).
func (f *forwardingCore) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) && boolIs(kb, knowledge.LabelMultihop, true)
}

// Activate implements module.Module.
func (f *forwardingCore) Activate(ctx *module.Context) {
	f.base.Activate(ctx)
	f.watch = hold(&f.base, ctx.Flows.Forwarding(f.cfg))
}

// relays returns the verdict input as of the capture's time.
func (f *forwardingCore) relays(c *packet.Captured) []flow.RelayRatio {
	f.ratios = f.watch.Ratios(c.Nanos(), f.ratios)
	return f.ratios
}

// SelectiveForwarding detects relays that drop a fraction of the
// traffic they should forward (drop ratio in the selective band).
type SelectiveForwarding struct{ forwardingCore }

var _ module.Module = (*SelectiveForwarding)(nil)

// NewSelectiveForwarding creates the module. Parameters: "timeout",
// "window", "cooldown" (durations), "minSamples" (int, at least 1).
func NewSelectiveForwarding(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&SelectiveForwarding{newForwardingCore(SelectiveForwardingName, p)})
}

// HandlePacket implements module.Module.
func (d *SelectiveForwarding) HandlePacket(c *packet.Captured) {
	for _, r := range d.relays(c) {
		if r.Ratio >= 0.9 {
			// Blackhole-grade: handled by the Blackhole module. The
			// windowed ratio will pass back through the selective band
			// while it decays after the attack stops — hold the relay
			// silent for a full window so the decay is not misreported.
			d.gate.Hold(string(r.Relay), c.Time, d.cfg.Window)
			continue
		}
		if r.Ratio < 0.25 || !d.gate.Pass(string(r.Relay), c.Time, d.cooldown) {
			continue // healthy, or said already
		}
		d.ctx.Emit(module.Alert{
			Time:       c.Time,
			Attack:     attack.SelectiveForwarding,
			Module:     d.Name(),
			Suspects:   []packet.NodeID{r.Relay},
			Confidence: 0.8,
			Details:    fmt.Sprintf("relay %s drops %.0f%% of forwarded traffic", r.Relay, r.Ratio*100),
		})
	}
}

// Blackhole detects relays that drop (nearly) all traffic they should
// forward. It additionally publishes a collective SuspectBlackhole
// knowgget naming the dropped origins, which peer Kalis nodes correlate
// into wormhole detections (§VI-D).
type Blackhole struct {
	forwardingCore
	// published is, per relay, the dropped-origin count as of the last
	// SuspectBlackhole put: the set is rendered again only once it grew.
	published packet.Sticky[int]
}

var _ module.Module = (*Blackhole)(nil)

// NewBlackhole creates the module. Parameters as
// NewSelectiveForwarding.
func NewBlackhole(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Blackhole{forwardingCore: newForwardingCore(BlackholeName, p)})
}

// Activate implements module.Module.
func (d *Blackhole) Activate(ctx *module.Context) {
	d.forwardingCore.Activate(ctx)
	d.published.Reset()
}

// HandlePacket implements module.Module.
func (d *Blackhole) HandlePacket(c *packet.Captured) {
	for _, r := range d.relays(c) {
		if r.Ratio < 0.9 {
			continue
		}
		if d.knowledgeDriven() {
			if published, _, _ := d.published.Put(r.H, r.Relay); *published != r.Origins {
				*published = r.Origins
				d.ctx.KB.PutCollective(knowledge.LabelSuspectBlackhole, string(r.Relay), originList(d.watch.DroppedOrigins(r.H)))
			}
		}
		if !d.gate.Pass(string(r.Relay), c.Time, d.cooldown) {
			continue
		}
		d.ctx.Emit(module.Alert{
			Time:       c.Time,
			Attack:     attack.Blackhole,
			Module:     d.Name(),
			Suspects:   []packet.NodeID{r.Relay},
			Confidence: 0.85,
			Details:    fmt.Sprintf("relay %s drops %.0f%% of forwarded traffic", r.Relay, r.Ratio*100),
		})
	}
}

// originList renders origins as the comma-separated payload of
// SuspectBlackhole knowggets.
func originList(origins []uint16) string {
	parts := make([]string, len(origins))
	for i, o := range origins {
		parts[i] = strconv.Itoa(int(o))
	}
	return strings.Join(parts, ",")
}
