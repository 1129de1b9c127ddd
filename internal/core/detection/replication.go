package detection

import (
	"fmt"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/taxonomy"
)

// Registry names of the replication-detection modules.
const (
	ReplicationStaticName = "ReplicationStaticModule"
	ReplicationMobileName = "ReplicationMobileModule"
)

// The replication attack adds malicious replicas of legitimate node
// identities to the network (§VI-B2). "Many detection techniques exist
// for this attack; however each one is specific to a network with
// certain characteristics, e.g. mobility [25]" — Kalis therefore ships
// two modules and activates the one matching the network's current
// mobility profile. Both read the same per-identity motion evidence
// (RSSI jumps, sequence-counter conflicts) from the flow layer's shared
// identity-motion tracker; when configured alike, the state updates
// once per packet for both.

// replicationCore is what both variants share: configuration and the
// handle on the flow layer's motion tracker. Each module embeds its own
// core and adds only its knowledge predicate and verdict.
type replicationCore struct {
	base
	threshold  float64 // RSSI jump threshold (dB)
	window     time.Duration
	minEvents  int
	cooldown   time.Duration
	alpha      float64
	minSamples int

	motion *flow.IdentityMotion
}

// newReplicationCore reads the parameters "threshold" (dB), "window",
// "cooldown" (durations) and "minEvents" (int).
func newReplicationCore(b base, p *module.ParamReader) replicationCore {
	return replicationCore{
		base:       b,
		threshold:  p.Float("threshold", 6),
		window:     p.Duration("window", 30*time.Second),
		minEvents:  p.Int("minEvents", 3),
		cooldown:   p.Duration("cooldown", 20*time.Second),
		alpha:      0.3,
		minSamples: 3,
	}
}

// Activate implements module.Module: it attaches the module to the
// flow layer's shared motion tracker.
func (r *replicationCore) Activate(ctx *module.Context) {
	r.base.Activate(ctx)
	r.motion = hold(&r.base, ctx.Flows.Motion(flow.MotionConfig{
		Medium:     packet.MediumIEEE802154,
		Threshold:  r.threshold,
		Window:     r.window,
		Alpha:      r.alpha,
		MinSamples: r.minSamples,
	}))
}

// ReplicationStatic detects node replication in static networks: a
// stationary node's signal strength is stable, so an identity whose
// RSSI repeatedly jumps between distinct levels is being used by a
// replica at a different location. The technique is only sound while
// the RSSI baseline is trustworthy: when most identities are jumping
// (i.e. the network is actually mobile), the module conservatively
// stays silent — which is exactly why it is the wrong module for a
// mobile network.
type ReplicationStatic struct{ replicationCore }

var _ module.Module = (*ReplicationStatic)(nil)

// NewReplicationStatic creates the module. Parameters: "threshold"
// (dB), "window", "cooldown" (durations), "minEvents" (int).
func NewReplicationStatic(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&ReplicationStatic{newReplicationCore(base{name: ReplicationStaticName, attack: attack.Replication, technique: taxonomy.FeatureStatic}, p)})
}

// HandlePacket implements module.Module.
func (d *ReplicationStatic) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.TransmitterH == 0 {
		return
	}
	s := d.motion.Snapshot(c.TransmitterH)
	// Alert only on fresh evidence: the current packet must itself be
	// a jump, so stale window contents cannot re-trigger after the
	// attack stops.
	if s.Jumps < d.minEvents || s.LastJump != c.Nanos() {
		return
	}
	// Baseline health: under network-wide motion the RSSI baseline is
	// meaningless; stay silent rather than flood false positives.
	if d.motion.JumpyFraction() > 0.5 {
		return
	}
	if !d.gate.Pass(string(c.Transmitter), c.Time, d.cooldown) {
		return
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Replication,
		Module:     d.Name(),
		Suspects:   []packet.NodeID{c.Transmitter},
		Confidence: 0.85,
		Details: fmt.Sprintf("identity %s transmits from alternating locations (%d RSSI jumps)",
			packet.CleanID(c.Transmitter), s.Jumps),
	})
}

// ReplicationMobile detects node replication in mobile networks using a
// velocity-style test in the spirit of [25]: an identity observed with
// interleaved, conflicting end-to-end sequence counters is being
// originated by two devices at once — a signature that remains valid
// while nodes (and their RSSI) legitimately move.
type ReplicationMobile struct{ replicationCore }

var _ module.Module = (*ReplicationMobile)(nil)

// NewReplicationMobile creates the module. Parameters as
// NewReplicationStatic.
func NewReplicationMobile(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&ReplicationMobile{newReplicationCore(base{name: ReplicationMobileName, attack: attack.Replication, technique: taxonomy.FeatureMobile}, p)})
}

// HandlePacket implements module.Module.
func (d *ReplicationMobile) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.TransmitterH == 0 {
		return
	}
	s := d.motion.Snapshot(c.TransmitterH)
	// Fresh evidence only: the triggering packet must itself be a
	// sequence conflict.
	if s.Flips < d.minEvents || s.LastFlip != c.Nanos() {
		return
	}
	if !d.gate.Pass(string(c.Transmitter), c.Time, d.cooldown) {
		return
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Replication,
		Module:     d.Name(),
		Suspects:   []packet.NodeID{c.Transmitter},
		Confidence: 0.85,
		Details: fmt.Sprintf("identity %s shows %d interleaved sequence counters",
			packet.CleanID(c.Transmitter), s.Flips),
	})
}
