package detection

import (
	"fmt"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// SybilName is the registry name of the sybil-detection module.
const SybilName = "SybilModule"

// sybilAlpha is the RSSI fingerprint EWMA smoothing factor.
const sybilAlpha = 0.3

// sybilSubject is the module's single cooldown subject.
const sybilSubject = "cluster"

// Sybil detects sybil attacks with the RSSI technique of [42]: one
// physical device fabricating several identities cannot fabricate
// several positions, so a group of (recently appeared) identities whose
// signal strengths are indistinguishable betrays a single transmitter.
// The per-identity fingerprints come from the flow layer's shared
// identity tracker (updated once per packet before module fan-out).
type Sybil struct {
	base
	// tolerance is the RSSI spread (dB) within which identities are
	// considered co-located.
	tolerance float64
	// minIdentities is the cluster size that triggers an alert.
	minIdentities int
	// minFrames is the per-identity frame count before its fingerprint
	// is trusted.
	minFrames int
	// warmup is how long after activation identities still count as
	// pre-existing (not "new").
	warmup time.Duration
	// cooldown suppresses repeated alerts for the same cluster.
	cooldown time.Duration

	ids *flow.IdentityStats
}

var _ module.Module = (*Sybil)(nil)

// NewSybil creates the module. Parameters: "tolerance" (dB, default
// 1.5), "minIdentities" (default 4), "warmup", "cooldown" (durations).
func NewSybil(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Sybil{
		base:          base{name: SybilName},
		tolerance:     p.Float("tolerance", 1.5),
		minIdentities: p.Int("minIdentities", 4),
		minFrames:     2,
		warmup:        p.Duration("warmup", 20*time.Second),
		cooldown:      p.Duration("cooldown", 20*time.Second),
	})
}

// WatchLabels implements module.Module.
func (d *Sybil) WatchLabels() []string { return []string{knowledge.LabelMediums} }

// Required implements module.Module: the RSSI technique applies to
// wireless constrained-device networks.
func (d *Sybil) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154)
}

// Activate implements module.Module.
func (d *Sybil) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.ids = hold(&d.base, ctx.Flows.IdentityStats(sybilAlpha, packet.MediumIEEE802154))
}

// HandlePacket implements module.Module.
func (d *Sybil) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.TransmitterH == 0 {
		return
	}
	// One cooldown for the whole module (a cluster has no stable
	// identity to key by); the read-only probe spares the cluster walk
	// while it is armed.
	if d.gate.Armed(sybilSubject, c.Time) {
		return
	}
	cluster := d.ids.Cluster(c.TransmitterH, d.tolerance, d.minFrames, d.warmup)
	if len(cluster) < d.minIdentities || !d.gate.Pass(sybilSubject, c.Time, d.cooldown) {
		return
	}
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.Sybil,
		Module:     d.Name(),
		Suspects:   cluster,
		Confidence: 0.85,
		Details: fmt.Sprintf("%d recently-appeared identities share one RSSI fingerprint (±%.1f dB)",
			len(cluster), d.tolerance),
	})
}
