// Package udp implements UDP datagram encoding/decoding. Smart-home
// devices in the simulated testbed (Lifx-style bulbs, discovery
// protocols) communicate over UDP on the local network.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned for datagrams shorter than the UDP header.
var ErrTruncated = errors.New("udp: truncated datagram")

// Datagram is a decoded UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// LayerName implements packet.Layer.
func (d *Datagram) LayerName() string { return "udp" }

// String renders a compact human-readable form.
func (d *Datagram) String() string {
	return fmt.Sprintf("udp %d->%d len=%d", d.SrcPort, d.DstPort, len(d.Payload))
}

// Encode serialises the datagram. The checksum is left zero (legal for
// IPv4 UDP) to keep encodings address-independent.
func (d *Datagram) Encode() []byte {
	buf := make([]byte, 8+len(d.Payload))
	binary.BigEndian.PutUint16(buf[0:2], d.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], d.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], uint16(8+len(d.Payload)))
	copy(buf[8:], d.Payload)
	return buf
}

// Decode parses a UDP datagram into a new Datagram.
func Decode(b []byte) (*Datagram, error) {
	d := new(Datagram)
	if err := DecodeInto(d, b); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeInto parses a UDP datagram into dst, overwriting every field;
// Payload aliases b. dst is unspecified after an error.
func DecodeInto(dst *Datagram, b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	length := int(binary.BigEndian.Uint16(b[4:6]))
	if length < 8 || length > len(b) {
		return ErrTruncated
	}
	*dst = Datagram{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
	}
	if length > 8 {
		dst.Payload = b[8:length]
	}
	return nil
}
