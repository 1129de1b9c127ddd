// Package sensing implements Kalis' sensing modules — the autonomous
// knowledge-discovery mechanisms of §IV-B4: Topology Discovery, Traffic
// Statistics Collection, and Mobility Awareness. Sensing modules turn
// raw captures into knowggets; they never raise alerts.
package sensing

import (
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/sixlowpan"
	"kalis/internal/proto/zigbee"
)

// TopologyName is the registry name of the Topology Discovery module.
const TopologyName = "TopologyDiscoveryModule"

// Topology is the Topology Discovery sensing module. It reconstructs
// the local topology from captured traffic and differentiates multi-hop
// from single-hop networks using: the communication medium, the
// detection of known routing protocols (RPL in 6LoWPAN, CTP in TinyOS),
// the inclusion of forwarding/next-hop headers in packets, and direct
// evidence of per-hop forwarding (§V "Sensing Modules").
//
// It also publishes the observed mediums (Mediums.*), which gate the
// detection modules, and the number of distinct monitored entities
// (MonitoredNodes).
type Topology struct {
	ctx *module.Context

	// singleHopAfter is the packet count after which, absent any
	// multi-hop evidence, the network is declared single-hop.
	singleHopAfter int

	packets  int
	multihop bool
	declared bool
	secured  bool
	// nodes holds the monitored entities, found by identity handle.
	nodes   packet.ByHandle[struct{}]
	mediums [256]bool
}

var _ module.Module = (*Topology)(nil)

// NewTopology creates the module. Parameters: "singleHopAfter" (packet
// count, default 30).
func NewTopology(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Topology{singleHopAfter: p.Int("singleHopAfter", 30)})
}

// Name implements module.Module.
func (t *Topology) Name() string { return TopologyName }

// Kind implements module.Module.
func (t *Topology) Kind() module.Kind { return module.KindSensing }

// WatchLabels implements module.Module.
func (t *Topology) WatchLabels() []string { return []string{knowledge.LabelMultihop} }

// Required implements module.Module: discovery is unnecessary when the
// topology is statically known.
func (t *Topology) Required(kb *knowledge.Base) bool {
	return !kb.IsStatic(knowledge.LabelMultihop)
}

// Activate implements module.Module.
func (t *Topology) Activate(ctx *module.Context) {
	t.ctx = ctx
	t.packets = 0
	t.multihop = false
	t.declared = false
	t.secured = false
	t.nodes.Reset()
	t.mediums = [256]bool{}
}

// Deactivate implements module.Module.
func (t *Topology) Deactivate() { t.ctx = nil }

// HandlePacket implements module.Module.
func (t *Topology) HandlePacket(c *packet.Captured) {
	t.packets++
	kb := t.ctx.KB

	if !t.mediums[c.Medium] {
		t.mediums[c.Medium] = true
		//lint:ignore hotalloc first-seen gated: runs once per newly observed medium, a handful over a deployment
		kb.Put(knowledge.LabelMediums+"."+c.Medium.String(), "true")
	}
	t.observeNode(c.TransmitterH, c.Transmitter)
	t.observeNode(c.SrcH, c.Src)
	t.observeNode(c.DstH, c.Dst)

	if evidence, ok := t.multihopEvidence(c); ok && !t.multihop {
		t.multihop = true
		t.declared = true
		kb.Put("MultihopEvidence", evidence)
		kb.PutBool(knowledge.LabelMultihop, true)
	}
	if !t.declared && t.packets >= t.singleHopAfter {
		t.declared = true
		// Absence-default: this instance saw enough traffic without a
		// forwarding chain. On a sharded node another instance may hold
		// the proof, so the default must not clobber evidence.
		kb.PutBoolDefault(knowledge.LabelMultihop, false)
	}
	// Link-layer security is a prevention-technique feature (§III-B2):
	// devices that encrypt are immune to data alteration, so observing
	// the 802.15.4 security bit lets Kalis deactivate that detection.
	if mac, ok := c.Layer("ieee802154").(*ieee802154.Frame); ok && mac.Security && !t.secured {
		t.secured = true
		kb.PutBool(knowledge.LabelEncrypted, true)
	}
}

func (t *Topology) observeNode(h packet.Handle, id packet.NodeID) {
	if h == 0 || id == packet.Broadcast {
		return
	}
	if _, fresh := t.nodes.Put(h); !fresh {
		return
	}
	// High-water mark: per-shard instances each see a traffic
	// partition, so last-writer-wins would undercount on whichever
	// shard wrote last. A fresh slot that held an evicted identity
	// leaves the count as it was.
	t.ctx.KB.PutIntMax(knowledge.LabelMonitoredNodes, t.nodes.Len())
}

// multihopEvidence inspects one capture for multi-hop signals.
func (t *Topology) multihopEvidence(c *packet.Captured) (string, bool) {
	// Direct evidence: the frame's end-to-end source differs from the
	// per-hop transmitter — someone is forwarding.
	if c.SrcH != 0 && c.TransmitterH != 0 && c.SrcH != c.TransmitterH {
		return "forwarding (src != transmitter)", true
	}
	for _, l := range c.Layers {
		switch v := l.(type) {
		case *ctp.Data:
			if v.THL > 0 {
				return "CTP THL > 0", true
			}
		case *sixlowpan.Packet:
			if v.Mesh != nil {
				return "6LoWPAN mesh header", true
			}
		case *sixlowpan.RPLMessage:
			return "RPL control traffic", true
		case *zigbee.Frame:
			if v.SourceRoute {
				return "ZigBee source route", true
			}
			if v.IsRouting() && (v.Command == zigbee.CmdRouteRequest || v.Command == zigbee.CmdRouteReply || v.Command == zigbee.CmdRouteRecord) {
				return "ZigBee route discovery", true
			}
		}
	}
	return "", false
}
