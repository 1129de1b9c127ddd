package detection

import (
	"fmt"
	"strconv"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
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

// replicationCore holds the configuration and alert policy shared by
// both variants, plus the handle on the flow layer's motion tracker.
type replicationCore struct {
	threshold  float64 // RSSI jump threshold (dB)
	window     time.Duration
	minEvents  int
	cooldown   time.Duration
	alpha      float64
	minSamples int

	motion   *flow.IdentityMotion
	suppress map[packet.NodeID]time.Time
}

func newReplicationCore(params map[string]string) (*replicationCore, error) {
	c := &replicationCore{
		threshold:  6,
		window:     30 * time.Second,
		minEvents:  3,
		cooldown:   20 * time.Second,
		alpha:      0.3,
		minSamples: 3,
	}
	var err error
	if v, ok := params["threshold"]; ok {
		if c.threshold, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("threshold: %w", err)
		}
	}
	if v, ok := params["window"]; ok {
		if c.window, err = time.ParseDuration(v); err != nil {
			return nil, fmt.Errorf("window: %w", err)
		}
	}
	if v, ok := params["minEvents"]; ok {
		if c.minEvents, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("minEvents: %w", err)
		}
	}
	if v, ok := params["cooldown"]; ok {
		if c.cooldown, err = time.ParseDuration(v); err != nil {
			return nil, fmt.Errorf("cooldown: %w", err)
		}
	}
	return c, nil
}

// acquire attaches the core to the flow layer's shared motion tracker
// and resets the alert policy.
func (c *replicationCore) acquire(ctx *module.Context) {
	c.motion = ctx.Flows.Motion(flow.MotionConfig{
		Medium:     packet.MediumIEEE802154,
		Threshold:  c.threshold,
		Window:     c.window,
		Alpha:      c.alpha,
		MinSamples: c.minSamples,
	})
	c.suppress = make(map[packet.NodeID]time.Time)
}

// release returns the tracker handle.
func (c *replicationCore) release() {
	c.motion.Release()
	c.motion = nil
}

func (c *replicationCore) suppressed(id packet.NodeID, now time.Time) bool {
	if until, ok := c.suppress[id]; ok && now.Before(until) {
		return true
	}
	c.suppress[id] = now.Add(c.cooldown)
	return false
}

// ReplicationStatic detects node replication in static networks: a
// stationary node's signal strength is stable, so an identity whose
// RSSI repeatedly jumps between distinct levels is being used by a
// replica at a different location. The technique is only sound while
// the RSSI baseline is trustworthy: when most identities are jumping
// (i.e. the network is actually mobile), the module conservatively
// stays silent — which is exactly why it is the wrong module for a
// mobile network.
type ReplicationStatic struct {
	base
	core *replicationCore
}

var _ module.Module = (*ReplicationStatic)(nil)

// NewReplicationStatic creates the module. Parameters: "threshold"
// (dB), "window", "cooldown" (durations), "minEvents" (int).
func NewReplicationStatic(params map[string]string) (module.Module, error) {
	core, err := newReplicationCore(params)
	if err != nil {
		return nil, err
	}
	return &ReplicationStatic{core: core}, nil
}

// Name implements module.Module.
func (d *ReplicationStatic) Name() string { return ReplicationStaticName }

// WatchLabels implements module.Module.
func (d *ReplicationStatic) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMobility}
}

// Required implements module.Module: suitable for static wireless
// networks of constrained devices.
func (d *ReplicationStatic) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) && boolIs(kb, knowledge.LabelMobility, false)
}

// Activate implements module.Module.
func (d *ReplicationStatic) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.core.acquire(ctx)
}

// Deactivate implements module.Module.
func (d *ReplicationStatic) Deactivate() {
	d.core.release()
	d.base.Deactivate()
}

// HandlePacket implements module.Module.
func (d *ReplicationStatic) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.Transmitter == "" {
		return
	}
	s := d.core.motion.Snapshot(c.Transmitter)
	// Alert only on fresh evidence: the current packet must itself be
	// a jump, so stale window contents cannot re-trigger after the
	// attack stops.
	if s.Jumps < d.core.minEvents || !s.LastJump.Equal(c.Time) {
		return
	}
	// Baseline health: under network-wide motion the RSSI baseline is
	// meaningless; stay silent rather than flood false positives.
	if d.core.motion.JumpyFraction() > 0.5 {
		return
	}
	if d.core.suppressed(c.Transmitter, c.Time) {
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
type ReplicationMobile struct {
	base
	core *replicationCore
}

var _ module.Module = (*ReplicationMobile)(nil)

// NewReplicationMobile creates the module. Parameters as
// NewReplicationStatic.
func NewReplicationMobile(params map[string]string) (module.Module, error) {
	core, err := newReplicationCore(params)
	if err != nil {
		return nil, err
	}
	return &ReplicationMobile{core: core}, nil
}

// Name implements module.Module.
func (d *ReplicationMobile) Name() string { return ReplicationMobileName }

// WatchLabels implements module.Module.
func (d *ReplicationMobile) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelMobility}
}

// Required implements module.Module: suitable for mobile wireless
// networks.
func (d *ReplicationMobile) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) && boolIs(kb, knowledge.LabelMobility, true)
}

// Activate implements module.Module.
func (d *ReplicationMobile) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.core.acquire(ctx)
}

// Deactivate implements module.Module.
func (d *ReplicationMobile) Deactivate() {
	d.core.release()
	d.base.Deactivate()
}

// HandlePacket implements module.Module.
func (d *ReplicationMobile) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.Transmitter == "" {
		return
	}
	s := d.core.motion.Snapshot(c.Transmitter)
	// Fresh evidence only: the triggering packet must itself be a
	// sequence conflict.
	if s.Flips < d.core.minEvents || !s.LastFlip.Equal(c.Time) {
		return
	}
	if d.core.suppressed(c.Transmitter, c.Time) {
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
