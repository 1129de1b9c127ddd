package detection

import (
	"fmt"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// DataAlterationName is the registry name of the data-alteration
// module.
const DataAlterationName = "DataAlterationModule"

// DataAlteration detects in-flight payload tampering on unencrypted
// collection traffic by checking the application payload's internal
// consistency (the WSN application embeds its sequence number in the
// payload). Per the Fig. 3 taxonomy, cryptographic protection makes
// devices immune to alteration — the module deactivates itself when the
// Encrypted feature is known true.
type DataAlteration struct {
	base
	cooldown time.Duration
	suppress map[packet.NodeID]time.Time
}

var _ module.Module = (*DataAlteration)(nil)

// NewDataAlteration creates the module. Parameters: "cooldown"
// (duration, default 10s).
func NewDataAlteration(params map[string]string) (module.Module, error) {
	d := &DataAlteration{cooldown: 10 * time.Second}
	if v, ok := params["cooldown"]; ok {
		cd, err := time.ParseDuration(v)
		if err != nil {
			return nil, fmt.Errorf("cooldown: %w", err)
		}
		d.cooldown = cd
	}
	return d, nil
}

// Name implements module.Module.
func (d *DataAlteration) Name() string { return DataAlterationName }

// WatchLabels implements module.Module.
func (d *DataAlteration) WatchLabels() []string {
	return []string{knowledge.LabelMediums, knowledge.LabelEncrypted}
}

// Required implements module.Module: pointless when the monitored
// devices encrypt (a prevention-technique feature, §III-B2).
func (d *DataAlteration) Required(kb *knowledge.Base) bool {
	return hasMedium(kb, packet.MediumIEEE802154) &&
		boolIsOrUnknown(kb, knowledge.LabelEncrypted, false)
}

// Activate implements module.Module.
func (d *DataAlteration) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.suppress = make(map[packet.NodeID]time.Time)
}

// HandlePacket implements module.Module.
func (d *DataAlteration) HandlePacket(c *packet.Captured) {
	data, ok := c.Layer("ctp-data").(*ctp.Data)
	if !ok {
		return
	}
	// The mote application payload is [0x01, seqNo]; a forwarded frame
	// whose payload disagrees with its own header was altered in
	// flight.
	if len(data.Payload) < 2 || data.Payload[0] != 0x01 {
		return
	}
	if data.Payload[1] == data.SeqNo {
		return
	}
	suspect := c.Transmitter
	if until, ok := d.suppress[suspect]; ok && c.Time.Before(until) {
		return
	}
	d.suppress[suspect] = c.Time.Add(d.cooldown)
	d.ctx.Emit(module.Alert{
		Time:       c.Time,
		Attack:     attack.DataAlteration,
		Module:     d.Name(),
		Victim:     c.Src,
		Suspects:   []packet.NodeID{suspect},
		Confidence: 0.95,
		Details: fmt.Sprintf("payload of origin %s seq %d altered in flight by %s",
			packet.CleanID(c.Src), data.SeqNo, packet.CleanID(suspect)),
	})
}
