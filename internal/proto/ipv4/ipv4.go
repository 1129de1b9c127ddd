// Package ipv4 implements IPv4 header encoding/decoding with the
// standard internet checksum, as used by the WiFi-side traffic Kalis
// monitors (smart-home devices talking to their cloud services).
package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol numbers used by the simulated device traffic.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("ipv4: truncated packet")
	ErrVersion   = errors.New("ipv4: not an IPv4 packet")
	ErrChecksum  = errors.New("ipv4: header checksum mismatch")
)

// Header is a decoded IPv4 header (without options).
type Header struct {
	TOS      uint8
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	Payload  []byte
}

// LayerName implements packet.Layer.
func (h *Header) LayerName() string { return "ipv4" }

// String renders a compact human-readable form.
func (h *Header) String() string {
	return fmt.Sprintf("ipv4 %s -> %s proto=%d ttl=%d", h.Src, h.Dst, h.Protocol, h.TTL)
}

// Encode serialises the header and payload, computing the checksum.
func (h *Header) Encode() []byte {
	total := 20 + len(h.Payload)
	buf := make([]byte, total)
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	buf[8] = h.TTL
	buf[9] = h.Protocol
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	binary.BigEndian.PutUint16(buf[10:12], Checksum(buf[:20]))
	copy(buf[20:], h.Payload)
	return buf
}

// Decode parses an IPv4 packet into a new Header and verifies the
// header checksum.
func Decode(b []byte) (*Header, error) {
	h := new(Header)
	if err := DecodeInto(h, b); err != nil {
		return nil, err
	}
	return h, nil
}

// DecodeInto parses an IPv4 packet into dst and verifies the header
// checksum, overwriting every field; Payload aliases b. dst is
// unspecified after an error.
func DecodeInto(dst *Header, b []byte) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		return ErrTruncated
	}
	if Checksum(b[:ihl]) != 0 {
		return ErrChecksum
	}
	// A total length short of the header itself is as unusable as one
	// beyond the capture (and would be a reversed slice below).
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return ErrTruncated
	}
	*dst = Header{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
		Payload:  b[ihl:total],
	}
	return nil
}

// Checksum computes the RFC 1071 internet checksum over b. When b
// already contains a checksum field the result is 0 iff it verifies.
func Checksum(b []byte) uint16 { return Fold(Sum(0, b)) }

// Sum adds the big-endian 16-bit words of b (an odd trailing byte is
// padded with zero) to the running one's-complement sum, so that a
// checksum over several pieces — a pseudo-header and a segment — needs
// no buffer joining them. Every piece but the last must have even
// length.
func Sum(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// Fold reduces a running sum to the 16-bit internet checksum.
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}
