// Package flow is Kalis' flow-centric feature pipeline: a bounded flow
// table keyed by 5-tuple + medium whose flows carry five fixed
// accumulators updated once per packet (rate, inter-arrival, RSSI and
// CTP header drift), plus endpoint-level aggregate trackers that serve
// the detection modules their traffic statistics in O(1) per packet,
// and beside them the per-module alert cooldown ledgers (Cooldown).
//
// The table lives on the virtual capture clock: every timeout (idle,
// active) and every window prune takes its notion of "now" from packet
// timestamps, never from time.Now, so simulated scenarios exercise the
// full flow lifecycle deterministically (the simclock discipline).
//
// Expired, evicted and flushed flows are exported as Records through
// OnExport callbacks; the core hands them to its OnFlowRecord
// subscribers.
//
// A table and its trackers belong to one goroutine at a time: on a
// Kalis node, whichever holds the shard's dispatch token. Update, every
// tracker's acquire, release, Observe and read, and the cooldown
// ledgers run there, so no tracker locks. Only Len (telemetry scrapes)
// and Flush (shutdown) are called from elsewhere, under the table's
// mutex.
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

// named is the Key of a table key classified from c: the endpoints'
// names in place of their handles.
func (k handleKey) named(c *packet.Captured) Key {
	return Key{Medium: k.medium, Src: c.Src, Dst: c.Dst, Proto: k.proto, SrcPort: k.srcPort, DstPort: k.dstPort}
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

// String renders the key in a stable, human-readable form, as
// flow-record dumps print it. It is called on the export path only
// (cold), never per packet.
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

// flow is the live state of one flow in the table, owned by the table.
type flow struct {
	key Key
	// first and last are the capture timestamps of the first and most
	// recent packet; packets and bytes count the flow's traffic. While
	// feats.update runs they still hold the previous packet's values
	// (packets == 0 on the flow's first packet); the table advances
	// them afterwards.
	first, last    time.Time
	packets, bytes uint64

	// hk is the flow's map key; firstNs and lastNs are first and last
	// in capture nanoseconds, what expiry compares.
	hk              handleKey
	firstNs, lastNs int64

	feats features

	// Intrusive LRU list links (head = most recently touched).
	prev, next *flow
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
	// Features are the final feature emissions, in a fixed order:
	// rate, iat, rssi, thl, etx (see features.emit).
	Features []Value
}
