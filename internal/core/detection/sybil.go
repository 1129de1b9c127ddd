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

// SybilName is the registry name of the sybil-detection module.
const SybilName = "SybilModule"

// sybilAlpha is the RSSI fingerprint EWMA smoothing factor.
const sybilAlpha = 0.3

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

	ids      *flow.IdentityStats
	suppress time.Time
}

var _ module.Module = (*Sybil)(nil)

// NewSybil creates the module. Parameters: "tolerance" (dB, default
// 1.5), "minIdentities" (default 4), "warmup", "cooldown" (durations).
func NewSybil(params map[string]string) (module.Module, error) {
	d := &Sybil{
		tolerance:     1.5,
		minIdentities: 4,
		minFrames:     2,
		warmup:        20 * time.Second,
		cooldown:      20 * time.Second,
	}
	var err error
	if v, ok := params["tolerance"]; ok {
		if d.tolerance, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("tolerance: %w", err)
		}
	}
	if v, ok := params["minIdentities"]; ok {
		if d.minIdentities, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("minIdentities: %w", err)
		}
	}
	if v, ok := params["warmup"]; ok {
		if d.warmup, err = time.ParseDuration(v); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	if v, ok := params["cooldown"]; ok {
		if d.cooldown, err = time.ParseDuration(v); err != nil {
			return nil, fmt.Errorf("cooldown: %w", err)
		}
	}
	return d, nil
}

// Name implements module.Module.
func (d *Sybil) Name() string { return SybilName }

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
	d.suppress = time.Time{}
	d.ids = ctx.Flows.IdentityStats(sybilAlpha, packet.MediumIEEE802154)
}

// Deactivate implements module.Module.
func (d *Sybil) Deactivate() {
	d.ids.Release()
	d.ids = nil
	d.base.Deactivate()
}

// HandlePacket implements module.Module.
func (d *Sybil) HandlePacket(c *packet.Captured) {
	if c.Medium != packet.MediumIEEE802154 || c.Transmitter == "" {
		return
	}
	if !d.suppress.IsZero() && c.Time.Before(d.suppress) {
		return
	}
	cluster := d.ids.Cluster(c.Transmitter, d.tolerance, d.minFrames, d.warmup)
	if len(cluster) < d.minIdentities {
		return
	}
	d.suppress = c.Time.Add(d.cooldown)
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
