// Package flow is Kalis' flow-centric feature pipeline: a bounded flow
// table keyed by 5-tuple + medium whose per-flow features are small
// state machines updated once per packet (in the spirit of CN-TU's
// go-flows), plus endpoint-level aggregate trackers that serve the
// detection modules their traffic statistics in O(1) per packet, and
// beside them the per-module alert cooldown ledgers (Cooldown).
//
// The table lives on the virtual capture clock: every timeout (idle,
// active) and every window prune takes its notion of "now" from packet
// timestamps, never from time.Now, so simulated scenarios exercise the
// full flow lifecycle deterministically (the simclock discipline).
//
// Expired, evicted and flushed flows are exported as Records through
// OnExport callbacks; the core hands them to its OnFlowRecord
// subscribers.
package flow

import (
	"strconv"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/tcp"
	"kalis/internal/proto/udp"
)

// Proto is the coarse transport/protocol class of a flow key. It folds
// the packet-kind taxonomy into the handful of classes that make two
// packets belong to "the same conversation".
type Proto uint8

// Flow protocol classes.
const (
	ProtoOther Proto = iota
	ProtoTCP
	ProtoUDP
	ProtoICMP
	ProtoCTP
	ProtoZigbee
	ProtoBLE
)

// String returns the protocol-class name.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	case ProtoCTP:
		return "ctp"
	case ProtoZigbee:
		return "zigbee"
	case ProtoBLE:
		return "ble"
	default:
		return "other"
	}
}

// Key identifies one unidirectional flow: medium + link endpoints +
// protocol class + transport ports (zero when the protocol has none).
// It is the identity exported flow records carry; the table itself
// finds a flow by the same tuple with identity handles in place of the
// names (handleKey), so a packet hashes no string.
type Key struct {
	Medium           packet.Medium
	Src, Dst         packet.NodeID
	Proto            Proto
	SrcPort, DstPort uint16
}

// handleKey is the table's map key: Key with the endpoints' identity
// handles, a fixed-size tuple.
type handleKey struct {
	src, dst         packet.Handle
	srcPort, dstPort uint16
	medium           packet.Medium
	proto            Proto
}

// KeyOf classifies a capture into its flow key.
func KeyOf(c *packet.Captured) Key {
	k := keyOf(c)
	return Key{Medium: c.Medium, Src: c.Src, Dst: c.Dst, Proto: k.proto, SrcPort: k.srcPort, DstPort: k.dstPort}
}

// keyOf classifies a capture into the table's key.
func keyOf(c *packet.Captured) handleKey {
	k := handleKey{src: c.SrcH, dst: c.DstH, medium: c.Medium}
	switch c.Kind {
	case packet.KindTCPSYN, packet.KindTCPACK, packet.KindTCPOther:
		k.proto = ProtoTCP
		if seg, ok := c.Layer("tcp").(*tcp.Segment); ok {
			k.srcPort, k.dstPort = seg.SrcPort, seg.DstPort
		}
	case packet.KindUDP:
		k.proto = ProtoUDP
		if d, ok := c.Layer("udp").(*udp.Datagram); ok {
			k.srcPort, k.dstPort = d.SrcPort, d.DstPort
		}
	case packet.KindICMPEchoRequest, packet.KindICMPEchoReply, packet.KindICMPOther:
		k.proto = ProtoICMP
	case packet.KindCTPData, packet.KindCTPBeacon:
		k.proto = ProtoCTP
	case packet.KindZigbeeData, packet.KindZigbeeRouting:
		k.proto = ProtoZigbee
	case packet.KindBLEAdvertising, packet.KindBLEData:
		k.proto = ProtoBLE
	}
	return k
}

// String renders the key in a stable, human-readable form — used as the
// coalescing key of flow.records events and in flow-record dumps. It is
// called on the export path only (cold), never per packet.
func (k Key) String() string {
	s := k.Medium.String() + "/" + k.Proto.String() + "/" + string(k.Src)
	if k.SrcPort != 0 {
		s += ":" + strconv.FormatUint(uint64(k.SrcPort), 10)
	}
	s += ">" + string(k.Dst)
	if k.DstPort != 0 {
		s += ":" + strconv.FormatUint(uint64(k.DstPort), 10)
	}
	return s
}

// Flow is the live state of one flow in the table. Fields are owned by
// the table; features read them through the update contract below.
type Flow struct {
	// Key is the flow's identity.
	Key Key
	// First and Last are the capture timestamps of the first and most
	// recent packet. During a feature State.Update call, Last still
	// holds the PREVIOUS packet's timestamp (so inter-arrival features
	// can difference against it); the table advances it afterwards.
	First, Last time.Time
	// Packets and Bytes count the flow's traffic. Like Last, they are
	// pre-update values while features run (Packets == 0 on the flow's
	// first packet).
	Packets, Bytes uint64

	// hk is the flow's map key; firstNs and lastNs are First and Last
	// in capture nanoseconds, what expiry compares.
	hk              handleKey
	firstNs, lastNs int64

	// feats holds one State per configured feature, index-aligned with
	// the table's feature names.
	feats []State

	// Intrusive LRU list links (head = most recently touched).
	prev, next *Flow
}

// ExpiryReason says why a flow left the table.
type ExpiryReason int

// Expiry reasons.
const (
	// ReasonIdle flows saw no packet for the idle timeout.
	ReasonIdle ExpiryReason = iota
	// ReasonActive flows exceeded the active timeout (long-lived flows
	// are exported in slices so records stay fresh).
	ReasonActive
	// ReasonEvicted flows were the least recently used when the table
	// hit its capacity bound.
	ReasonEvicted
	// ReasonShutdown flows were flushed when the node closed.
	ReasonShutdown
)

// String returns the reason name.
func (r ExpiryReason) String() string {
	switch r {
	case ReasonIdle:
		return "idle"
	case ReasonActive:
		return "active"
	case ReasonEvicted:
		return "evicted"
	case ReasonShutdown:
		return "shutdown"
	default:
		return "unknown"
	}
}

// Record is an exported (expired/terminated) flow: the immutable
// summary published on the flow.records topic.
type Record struct {
	// Key is the flow's identity.
	Key Key
	// First and Last bound the flow's lifetime in capture time.
	First, Last time.Time
	// Packets and Bytes are the final traffic counters.
	Packets, Bytes uint64
	// Reason says why the flow was exported.
	Reason ExpiryReason
	// Features are the final feature emissions, in the table's
	// configured feature order.
	Features []Value
}
