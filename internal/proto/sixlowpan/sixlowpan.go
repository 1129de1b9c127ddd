// Package sixlowpan implements the 6LoWPAN dispatch framing (RFC 4944 /
// RFC 6282 IPHC) and the RPL control messages (RFC 6550 DIS/DIO/DAO)
// carried over it.
//
// The Topology Discovery sensing module treats the presence of RPL
// control traffic as direct evidence of a multi-hop routing topology,
// and the Sinkhole detection module inspects advertised DIO ranks.
package sixlowpan

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Dispatch values (RFC 4944 §5.1, RFC 6282).
const (
	dispatchIPHC   = 0x60 // 011xxxxx: LOWPAN_IPHC compressed IPv6
	dispatchFrag1  = 0xC0 // 11000xxx: first fragment
	dispatchFragN  = 0xE0 // 11100xxx: subsequent fragment
	dispatchMeshTo = 0x80 // 10xxxxxx: mesh addressing header
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("sixlowpan: truncated frame")
	ErrDispatch  = errors.New("sixlowpan: unknown dispatch")

	errFragments = fmt.Errorf("sixlowpan: fragments unsupported: %w", ErrDispatch)
)

// MeshHeader is the RFC 4944 mesh-addressing header: a layer-2.5
// forwarding header whose presence is an unambiguous multi-hop signal.
type MeshHeader struct {
	HopsLeft    uint8
	Origin, Dst uint16
}

// Packet is a decoded 6LoWPAN frame.
type Packet struct {
	// Mesh is the mesh addressing header, nil when absent.
	Mesh *MeshHeader
	// NextHeader is the compressed IPv6 next-header value (58 = ICMPv6,
	// which carries RPL control messages).
	NextHeader uint8
	// HopLimit is the compressed IPv6 hop limit.
	HopLimit uint8
	// Src and Dst are compressed 16-bit node identifiers.
	Src, Dst uint16
	// RPL is the decoded RPL control message, nil if the payload is not
	// RPL.
	RPL *RPLMessage
	// Payload is the raw transport payload.
	Payload []byte
}

// LayerName implements packet.Layer.
func (p *Packet) LayerName() string { return "sixlowpan" }

// Encode serialises the packet.
func (p *Packet) Encode() []byte {
	buf := make([]byte, 0, 16+len(p.Payload))
	if p.Mesh != nil {
		buf = append(buf, dispatchMeshTo|(p.Mesh.HopsLeft&0x0f))
		var u16 [2]byte
		binary.BigEndian.PutUint16(u16[:], p.Mesh.Origin)
		buf = append(buf, u16[:]...)
		binary.BigEndian.PutUint16(u16[:], p.Mesh.Dst)
		buf = append(buf, u16[:]...)
	}
	buf = append(buf, dispatchIPHC, p.NextHeader, p.HopLimit)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], p.Src)
	buf = append(buf, u16[:]...)
	binary.BigEndian.PutUint16(u16[:], p.Dst)
	buf = append(buf, u16[:]...)
	if p.RPL != nil {
		buf = append(buf, p.RPL.encode()...)
	}
	return append(buf, p.Payload...)
}

// Frame is a Packet together with the storage its Mesh and RPL
// pointers refer to when the frame carries those headers, so that a
// decoded 6LoWPAN frame is one value. A Frame must not be copied after
// DecodeInto: the copy's pointers would still refer to the original.
type Frame struct {
	Packet
	mesh MeshHeader
	rpl  RPLMessage
}

// Decode parses a 6LoWPAN frame from an 802.15.4 payload into a new
// Packet.
func Decode(b []byte) (*Packet, error) {
	f := new(Frame)
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return &f.Packet, nil
}

// DecodeInto parses a 6LoWPAN frame from an 802.15.4 payload into f,
// overwriting every field; Payload aliases b, Mesh and RPL point into
// f. f is unspecified after an error.
func DecodeInto(f *Frame, b []byte) error {
	meshed, err := dispatch(b)
	if err != nil {
		return err
	}
	*f = Frame{}
	if meshed {
		f.mesh = MeshHeader{
			HopsLeft: b[0] & 0x0f,
			Origin:   binary.BigEndian.Uint16(b[1:3]),
			Dst:      binary.BigEndian.Uint16(b[3:5]),
		}
		f.Mesh = &f.mesh
		b = b[5:]
	}
	f.NextHeader = b[1]
	f.HopLimit = b[2]
	f.Src = binary.BigEndian.Uint16(b[3:5])
	f.Dst = binary.BigEndian.Uint16(b[5:7])
	rest := b[7:]
	if f.NextHeader == 58 && decodeRPL(&f.rpl, rest) { // ICMPv6: try RPL
		f.RPL = &f.rpl
		return nil
	}
	f.Payload = rest
	return nil
}

// dispatch checks the dispatch bytes — every test that can make
// DecodeInto fail — and reports whether a mesh addressing header
// precedes the IPHC header.
func dispatch(b []byte) (meshed bool, err error) {
	if len(b) < 1 {
		return false, ErrTruncated
	}
	if b[0]&0xC0 == dispatchMeshTo {
		if len(b) < 5 {
			return false, ErrTruncated
		}
		meshed, b = true, b[5:]
	}
	if len(b) < 7 || b[0]&0xE0 != dispatchIPHC {
		if len(b) >= 1 && (b[0]&0xF8 == dispatchFrag1 || b[0]&0xF8 == dispatchFragN) {
			return false, errFragments
		}
		return false, ErrDispatch
	}
	return meshed, nil
}

// IsLoWPAN reports whether DecodeInto accepts the payload: a caller
// that falls back to another protocol (ZigBee NWK shares the 802.15.4
// payload with no dispatch byte of its own) can decide before it
// commits storage to a Frame.
func IsLoWPAN(b []byte) bool {
	_, err := dispatch(b)
	return err == nil
}

// RPLType is an RPL control message code (RFC 6550 §6).
type RPLType uint8

// RPL control message codes.
const (
	RPLDIS RPLType = 0x00 // DODAG Information Solicitation
	RPLDIO RPLType = 0x01 // DODAG Information Object
	RPLDAO RPLType = 0x02 // Destination Advertisement Object
)

// String returns the message name.
func (t RPLType) String() string {
	switch t {
	case RPLDIS:
		return "DIS"
	case RPLDIO:
		return "DIO"
	case RPLDAO:
		return "DAO"
	default:
		return fmt.Sprintf("RPL(0x%02x)", uint8(t))
	}
}

// RPLMessage is a decoded RPL control message.
type RPLMessage struct {
	Type RPLType
	// InstanceID identifies the RPL instance.
	InstanceID uint8
	// Version is the DODAG version number (DIO only).
	Version uint8
	// Rank is the advertised rank (DIO only). An attacker advertising
	// rank close to the root is the RPL sinkhole symptom.
	Rank uint16
	// DODAGID is a compressed 16-bit DODAG root identifier.
	DODAGID uint16
}

// LayerName implements packet.Layer.
func (m *RPLMessage) LayerName() string { return "rpl" }

const rplICMPType = 155 // RFC 6550: ICMPv6 type for RPL control

func (m *RPLMessage) encode() []byte {
	buf := make([]byte, 8)
	buf[0] = rplICMPType
	buf[1] = uint8(m.Type)
	buf[2] = m.InstanceID
	buf[3] = m.Version
	binary.BigEndian.PutUint16(buf[4:6], m.Rank)
	binary.BigEndian.PutUint16(buf[6:8], m.DODAGID)
	return buf
}

// decodeRPL parses an RPL control message into m and reports whether
// b is one; anything else in ICMPv6 stays opaque payload.
func decodeRPL(m *RPLMessage, b []byte) bool {
	if len(b) < 8 || b[0] != rplICMPType {
		return false
	}
	*m = RPLMessage{
		Type:       RPLType(b[1]),
		InstanceID: b[2],
		Version:    b[3],
		Rank:       binary.BigEndian.Uint16(b[4:6]),
		DODAGID:    binary.BigEndian.Uint16(b[6:8]),
	}
	return true
}
