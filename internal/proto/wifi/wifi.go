// Package wifi implements a simplified IEEE 802.11 MAC framing for the
// WiFi medium: data frames carrying IP packets between stations and
// the access point, plus the management frames (beacon, association)
// that appear in smart-home traffic. The framing is a faithful subset
// of 802.11 (frame control, addresses, sequence) sufficient for a
// passive monitor; radiotap-style capture metadata (RSSI) travels in
// the packet envelope, not in the frame.
package wifi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kalis/internal/packet"
)

// FrameType is the 802.11 type field.
type FrameType uint8

// 802.11 frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// Management subtypes used by the simulated devices.
const (
	SubtypeAssocReq  uint8 = 0
	SubtypeAssocResp uint8 = 1
	SubtypeProbeReq  uint8 = 4
	SubtypeBeacon    uint8 = 8
	SubtypeAuth      uint8 = 11
	SubtypeDeauth    uint8 = 12
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// String renders the address in colon-hex form.
func (m MAC) String() string { return packet.ColonHex(m) }

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Errors returned by Decode.
var ErrTruncated = errors.New("wifi: truncated frame")

// Frame is a decoded (simplified) 802.11 frame.
type Frame struct {
	Type    FrameType
	Subtype uint8
	ToDS    bool
	FromDS  bool
	// Addr1..Addr3 follow 802.11 semantics (receiver, transmitter,
	// BSSID/source depending on DS bits).
	Addr1, Addr2, Addr3 MAC
	Seq                 uint16
	Payload             []byte
}

// LayerName implements packet.Layer.
func (f *Frame) LayerName() string { return "wifi" }

// String renders a compact human-readable form.
func (f *Frame) String() string {
	return fmt.Sprintf("wifi type=%d subtype=%d %s -> %s", f.Type, f.Subtype, f.Addr2, f.Addr1)
}

// Encode serialises the frame.
func (f *Frame) Encode() []byte { return f.AppendEncode(make([]byte, 0, 24+len(f.Payload))) }

// AppendEncode appends the encoded frame to dst and returns the
// extended slice; the bytes of dst before it are left as they were.
// The duration field and the fragment number are written as zero.
func (f *Frame) AppendEncode(dst []byte) []byte {
	var fc uint16
	fc |= uint16(f.Type&0x3) << 2
	fc |= uint16(f.Subtype&0xf) << 4
	if f.ToDS {
		fc |= 1 << 8
	}
	if f.FromDS {
		fc |= 1 << 9
	}
	dst = binary.LittleEndian.AppendUint16(dst, fc)
	dst = append(dst, 0, 0) // duration
	dst = append(dst, f.Addr1[:]...)
	dst = append(dst, f.Addr2[:]...)
	dst = append(dst, f.Addr3[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, f.Seq<<4)
	return append(dst, f.Payload...)
}

// Decode parses a simplified 802.11 frame into a new Frame.
func Decode(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses a simplified 802.11 frame into dst, overwriting
// every field; Payload aliases b. dst is unspecified after an error.
func DecodeInto(dst *Frame, b []byte) error {
	if len(b) < 24 {
		return ErrTruncated
	}
	fc := binary.LittleEndian.Uint16(b[0:2])
	*dst = Frame{
		Type:    FrameType((fc >> 2) & 0x3),
		Subtype: uint8((fc >> 4) & 0xf),
		ToDS:    fc&(1<<8) != 0,
		FromDS:  fc&(1<<9) != 0,
		Addr1:   MAC(b[4:10]),
		Addr2:   MAC(b[10:16]),
		Addr3:   MAC(b[16:22]),
		Seq:     binary.LittleEndian.Uint16(b[22:24]) >> 4,
	}
	if len(b) > 24 {
		dst.Payload = b[24:]
	}
	return nil
}
