// Package packet defines the capture envelope shared by every protocol
// substrate and by the Kalis core: a captured frame with its medium,
// timestamp, observed signal strength, and decoded layer stack.
//
// Kalis is a passive, network-based IDS: everything it knows about the
// world arrives as a stream of Captured values produced either by the
// network simulator's promiscuous sniffer or by trace replay.
package packet

import (
	"fmt"
	"time"
)

// Medium identifies the physical communication medium a frame was
// captured on. Kalis adapts its parsing and its detection-module set to
// the mediums it actually observes.
type Medium uint8

// Supported capture mediums.
const (
	MediumIEEE802154 Medium = iota + 1 // IEEE 802.15.4 (ZigBee, 6LoWPAN, CTP)
	MediumWiFi                         // IEEE 802.11
	MediumBluetooth                    // Bluetooth Low Energy
	MediumWired                        // wired Ethernet/IP (router uplink)
)

// String returns the conventional name of the medium.
func (m Medium) String() string {
	switch m {
	case MediumIEEE802154:
		return "ieee802.15.4"
	case MediumWiFi:
		return "wifi"
	case MediumBluetooth:
		return "bluetooth"
	case MediumWired:
		return "wired"
	default:
		//lint:ignore hotpath only a Medium outside the four constants gets here, and no capture interface or decoder produces one
		return fmt.Sprintf("medium(%d)", int(m))
	}
}

// Kind classifies the innermost decoded protocol layer of a captured
// frame. The Traffic Statistics sensing module keeps per-Kind
// frequencies ("TCP SYN", "ICMP request", "CTP data", ...), exactly as
// the paper's implementation does.
type Kind uint8

// Traffic kinds tracked by Kalis.
const (
	KindUnknown Kind = iota
	KindTCPSYN
	KindTCPACK
	KindTCPOther
	KindUDP
	KindICMPEchoRequest
	KindICMPEchoReply
	KindICMPOther
	KindZigbeeData
	KindZigbeeRouting
	KindCTPData
	KindCTPBeacon
	KindRPLControl
	KindSixLowPAN
	KindBLEAdvertising
	KindBLEData
	KindWiFiMgmt
	KindARP
)

// NumKinds is the number of Kind constants: a Kind below it indexes
// per-kind arrays.
const NumKinds = int(KindARP) + 1

var kindNames = [NumKinds]string{
	KindUnknown:         "Unknown",
	KindTCPSYN:          "TCPSYN",
	KindTCPACK:          "TCPACK",
	KindTCPOther:        "TCPOther",
	KindUDP:             "UDP",
	KindICMPEchoRequest: "ICMPEchoRequest",
	KindICMPEchoReply:   "ICMPEchoReply",
	KindICMPOther:       "ICMPOther",
	KindZigbeeData:      "ZigbeeData",
	KindZigbeeRouting:   "ZigbeeRouting",
	KindCTPData:         "CTPData",
	KindCTPBeacon:       "CTPBeacon",
	KindRPLControl:      "RPLControl",
	KindSixLowPAN:       "SixLowPAN",
	KindBLEAdvertising:  "BLEAdvertising",
	KindBLEData:         "BLEData",
	KindWiFiMgmt:        "WiFiMgmt",
	KindARP:             "ARP",
}

// String returns the stable name of the kind, used as the multilevel
// suffix of TrafficFrequency knowggets (e.g. "TrafficFrequency.TCPSYN").
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// NodeID identifies a network entity (device, node, or address) as seen
// by Kalis. Link-layer short addresses, IP addresses and BLE MACs are
// all rendered into this one namespace so that knowggets can carry a
// uniform "entity" field.
type NodeID string

// Broadcast is the ID used for link-layer broadcast destinations.
const Broadcast NodeID = "ff:ff"

// ColonHex renders a 48-bit hardware address (802.11 MAC, BLE device
// address) in the colon-hex form their NodeIDs use. It sits on the
// capture path, so the digits are placed by hand rather than by fmt.
func ColonHex(a [6]byte) string {
	const digits = "0123456789abcdef"
	var b [17]byte
	for i, v := range a {
		if i > 0 {
			b[3*i-1] = ':'
		}
		b[3*i], b[3*i+1] = digits[v>>4], digits[v&0xf]
	}
	return string(b[:])
}

// Layer is one decoded protocol layer of a captured frame. Concrete
// implementations live in the internal/proto/... packages.
type Layer interface {
	// LayerName returns the protocol name of the layer (e.g. "ctp").
	LayerName() string
}

// Captured is a single frame as overheard by a Kalis capture interface:
// raw bytes plus capture metadata plus the decoded layer stack.
type Captured struct {
	// Time is the capture timestamp. Under simulation this is virtual
	// time; modules must take time from here, never from time.Now.
	// Trackers do their arithmetic on Time.UnixNano (see Nanos).
	Time time.Time
	// Medium is the physical medium the frame was overheard on.
	Medium Medium
	// Kind classifies the innermost decoded layer.
	Kind Kind
	// SrcH, DstH and TransmitterH are the identity handles of Src, Dst
	// and Transmitter (see Handle): per-frame state is found by them,
	// never by the strings. Decode assigns them; a capture built by hand
	// gets them from Identify. An empty NodeID has handle 0.
	SrcH, DstH, TransmitterH Handle
	// RSSI is the received signal strength in dBm as observed by the
	// capture interface (0 when not applicable, e.g. wired).
	RSSI float64
	// Src and Dst are the link-layer source and destination.
	Src, Dst NodeID
	// Transmitter is the node that physically transmitted this frame
	// on this hop (differs from Src when the frame is being forwarded
	// in a multi-hop network). Empty when unknown.
	Transmitter NodeID
	// Layers is the decoded protocol stack, outermost first.
	Layers []Layer
	// Payload is the raw innermost payload (opaque to Kalis when the
	// device encrypts, as most consumer IoT devices do).
	Payload []byte
	// Truth optionally labels the frame with attack ground truth; it is
	// set only by the evaluation harness and is invisible to detection
	// modules (they must not read it).
	Truth *GroundTruth
}

// Nanos is the capture time as nanoseconds since the Unix epoch: the
// clock tracker arithmetic runs on. Capture times must lie within
// int64 nanoseconds of the epoch (the years 1678 to 2262).
func (c *Captured) Nanos() int64 { return c.Time.UnixNano() }

// TruncateNanos rounds capture nanoseconds down to a multiple of d the
// way time.Time.Truncate does: relative to the zero Time (year 1), not
// to the Unix epoch, so that a window grid laid out in nanoseconds
// matches one laid out with Captured.Time.Truncate for any d.
func TruncateNanos(ns int64, d time.Duration) int64 {
	return time.Unix(0, ns).Truncate(d).UnixNano()
}

// Layer returns the first decoded layer with the given name, or nil.
func (c *Captured) Layer(name string) Layer {
	for _, l := range c.Layers {
		if l.LayerName() == name {
			return l
		}
	}
	return nil
}

// Clone returns a deep copy of the capture envelope. Layer values are
// shared (they are immutable after decode); slices of the envelope are
// copied so that consumers can retain packets safely.
func (c *Captured) Clone() *Captured {
	cp := *c
	cp.Layers = make([]Layer, len(c.Layers))
	copy(cp.Layers, c.Layers)
	if c.Payload != nil {
		cp.Payload = make([]byte, len(c.Payload))
		copy(cp.Payload, c.Payload)
	}
	if c.Truth != nil {
		t := *c.Truth
		cp.Truth = &t
	}
	return &cp
}

// GroundTruth labels a frame that is a symptom of an injected attack.
// The evaluation harness uses it to score detection rate and
// classification accuracy; detection modules never consult it.
type GroundTruth struct {
	// Attack is the canonical attack name (see internal/attacks).
	Attack string
	// Instance numbers the symptom instance this frame belongs to.
	Instance int
	// Attacker is the true attacking node.
	Attacker NodeID
	// Victim is the true victim node, when meaningful.
	Victim NodeID
}
