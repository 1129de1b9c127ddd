// Package zigbee implements a decoder/encoder for the ZigBee network
// (NWK) layer carried in IEEE 802.15.4 data frames: data frames with
// source routing information and the routing command frames (route
// request/reply, network status) that Kalis' Topology Discovery module
// inspects to tell multi-hop from single-hop networks.
package zigbee

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameType is the NWK-level frame type.
type FrameType uint8

// NWK frame types.
const (
	FrameData    FrameType = 0
	FrameCommand FrameType = 1
)

// CommandID identifies a NWK routing command.
type CommandID uint8

// NWK command identifiers (ZigBee spec §3.4).
const (
	CmdRouteRequest  CommandID = 0x01
	CmdRouteReply    CommandID = 0x02
	CmdNetworkStatus CommandID = 0x03
	CmdLeave         CommandID = 0x04
	CmdRouteRecord   CommandID = 0x05
	CmdRejoinRequest CommandID = 0x06
	CmdLinkStatus    CommandID = 0x08
)

// String returns the command name.
func (c CommandID) String() string {
	switch c {
	case CmdRouteRequest:
		return "route-request"
	case CmdRouteReply:
		return "route-reply"
	case CmdNetworkStatus:
		return "network-status"
	case CmdLeave:
		return "leave"
	case CmdRouteRecord:
		return "route-record"
	case CmdRejoinRequest:
		return "rejoin-request"
	case CmdLinkStatus:
		return "link-status"
	default:
		return fmt.Sprintf("command(0x%02x)", uint8(c))
	}
}

// Errors returned by Decode.
var ErrTruncated = errors.New("zigbee: truncated NWK frame")

// Frame is a decoded ZigBee NWK frame.
type Frame struct {
	Type     FrameType
	Protocol uint8 // protocol version (ZigBee PRO = 2)
	// Discovery is the route-discovery sub-field (0..3).
	Discovery uint8
	// SourceRoute indicates the presence of a source routing subframe,
	// a forwarding header that reveals multi-hop operation.
	SourceRoute bool
	Dst, Src    uint16
	Radius      uint8
	Seq         uint8
	// Relays is the source-route relay list, present iff SourceRoute.
	Relays []uint16
	// Command is the routing command ID for FrameCommand frames.
	Command CommandID
	Payload []byte
}

// LayerName implements packet.Layer.
func (f *Frame) LayerName() string { return "zigbee" }

// IsRouting reports whether the frame is network-management/routing
// traffic rather than application data.
func (f *Frame) IsRouting() bool { return f.Type == FrameCommand }

// Encode serialises the NWK frame.
func (f *Frame) Encode() []byte {
	fcf := uint16(f.Type&0x3) | uint16(f.Protocol&0xf)<<2 | uint16(f.Discovery&0x3)<<6
	if f.SourceRoute {
		fcf |= 1 << 10
	}
	buf := make([]byte, 0, 16+2*len(f.Relays)+len(f.Payload))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], fcf)
	buf = append(buf, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], f.Dst)
	buf = append(buf, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], f.Src)
	buf = append(buf, u16[:]...)
	buf = append(buf, f.Radius, f.Seq)
	if f.SourceRoute {
		buf = append(buf, uint8(len(f.Relays)), 0)
		for _, r := range f.Relays {
			binary.LittleEndian.PutUint16(u16[:], r)
			buf = append(buf, u16[:]...)
		}
	}
	if f.Type == FrameCommand {
		buf = append(buf, uint8(f.Command))
	}
	return append(buf, f.Payload...)
}

// Decode parses a ZigBee NWK frame from an 802.15.4 payload into a new
// Frame.
func Decode(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses a ZigBee NWK frame from an 802.15.4 payload into
// f, overwriting every field; Payload aliases b, and a source-route
// relay list is the one thing allocated. f is unspecified after an
// error.
func DecodeInto(f *Frame, b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	fcf := binary.LittleEndian.Uint16(b[0:2])
	*f = Frame{
		Type:        FrameType(fcf & 0x3),
		Protocol:    uint8((fcf >> 2) & 0xf),
		Discovery:   uint8((fcf >> 6) & 0x3),
		SourceRoute: fcf&(1<<10) != 0,
		Dst:         binary.LittleEndian.Uint16(b[2:4]),
		Src:         binary.LittleEndian.Uint16(b[4:6]),
		Radius:      b[6],
		Seq:         b[7],
	}
	rest := b[8:]
	if f.SourceRoute {
		if len(rest) < 2 {
			return ErrTruncated
		}
		n := int(rest[0])
		rest = rest[2:]
		if len(rest) < 2*n {
			return ErrTruncated
		}
		f.Relays = make([]uint16, n)
		for i := 0; i < n; i++ {
			f.Relays[i] = binary.LittleEndian.Uint16(rest[2*i:])
		}
		rest = rest[2*n:]
	}
	if f.Type == FrameCommand {
		if len(rest) < 1 {
			return ErrTruncated
		}
		f.Command = CommandID(rest[0])
		rest = rest[1:]
	}
	f.Payload = rest
	return nil
}
