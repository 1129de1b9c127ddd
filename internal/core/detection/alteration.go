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
}

var _ module.Module = (*DataAlteration)(nil)

// NewDataAlteration creates the module. Parameters: "cooldown"
// (duration, default 10s).
func NewDataAlteration(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&DataAlteration{
		base:     base{name: DataAlterationName},
		cooldown: p.Duration("cooldown", 10*time.Second),
	})
}

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
	if !d.gate.Pass(string(suspect), c.Time, d.cooldown) {
		return
	}
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
