// Package tcp implements TCP segment encoding/decoding (flags,
// sequence numbers, checksum over the IPv4 pseudo-header). Kalis'
// Traffic Statistics module tracks TCP SYN and TCP ACK frequencies,
// and the SYN Flood detection module consumes them.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"kalis/internal/proto/ipv4"
)

// Flag bits in the TCP header.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagURG uint8 = 1 << 5
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("tcp: truncated segment")
	ErrChecksum  = errors.New("tcp: checksum mismatch")
)

// Segment is a decoded TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Payload          []byte
}

// LayerName implements packet.Layer.
func (s *Segment) LayerName() string { return "tcp" }

// String renders a compact human-readable form.
func (s *Segment) String() string {
	return fmt.Sprintf("tcp %d->%d flags=%s len=%d", s.SrcPort, s.DstPort, FlagString(s.Flags), len(s.Payload))
}

// IsSYN reports whether the segment is a connection-opening SYN
// (SYN set, ACK clear).
func (s *Segment) IsSYN() bool { return s.Flags&FlagSYN != 0 && s.Flags&FlagACK == 0 }

// IsSYNACK reports whether the segment is a SYN+ACK.
func (s *Segment) IsSYNACK() bool { return s.Flags&FlagSYN != 0 && s.Flags&FlagACK != 0 }

// IsACK reports whether the segment has only ACK semantics (ACK set,
// SYN/FIN/RST clear).
func (s *Segment) IsACK() bool {
	return s.Flags&FlagACK != 0 && s.Flags&(FlagSYN|FlagFIN|FlagRST) == 0
}

// FlagString renders flag bits as "SAFRPU"-style shorthand.
func FlagString(f uint8) string {
	names := []struct {
		bit  uint8
		name byte
	}{
		{FlagSYN, 'S'}, {FlagACK, 'A'}, {FlagFIN, 'F'},
		{FlagRST, 'R'}, {FlagPSH, 'P'}, {FlagURG, 'U'},
	}
	out := make([]byte, 0, 6)
	for _, n := range names {
		if f&n.bit != 0 {
			out = append(out, n.name)
		}
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// Encode serialises the segment, computing the checksum over the IPv4
// pseudo-header for the given source/destination addresses.
func (s *Segment) Encode(src, dst netip.Addr) []byte {
	buf := make([]byte, 20+len(s.Payload))
	binary.BigEndian.PutUint16(buf[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], s.Seq)
	binary.BigEndian.PutUint32(buf[8:12], s.Ack)
	buf[12] = 5 << 4 // data offset: 5 words
	buf[13] = s.Flags
	binary.BigEndian.PutUint16(buf[14:16], s.Window)
	copy(buf[20:], s.Payload)
	binary.BigEndian.PutUint16(buf[16:18], checksum(src, dst, buf))
	return buf
}

// Decode parses a TCP segment into a new Segment and verifies its
// checksum against the IPv4 pseudo-header.
func Decode(src, dst netip.Addr, b []byte) (*Segment, error) {
	s := new(Segment)
	if err := DecodeInto(s, src, dst, b); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeInto parses a TCP segment into seg and verifies its checksum
// against the IPv4 pseudo-header, overwriting every field; Payload
// aliases b. seg is unspecified after an error.
func DecodeInto(seg *Segment, src, dst netip.Addr, b []byte) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	if checksum(src, dst, b) != 0 {
		return ErrChecksum
	}
	off := int(b[12]>>4) * 4
	if off < 20 || off > len(b) {
		return ErrTruncated
	}
	*seg = Segment{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}
	if len(b) > off {
		seg.Payload = b[off:]
	}
	return nil
}

// checksum sums the 12-byte IPv4 pseudo-header and then the segment
// where it lies: no joined copy of the two is built.
func checksum(src, dst netip.Addr, seg []byte) uint16 {
	var pseudo [12]byte
	a, b := src.As4(), dst.As4()
	copy(pseudo[0:4], a[:])
	copy(pseudo[4:8], b[:])
	pseudo[9] = ipv4.ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	return ipv4.Fold(ipv4.Sum(ipv4.Sum(0, pseudo[:]), seg))
}
