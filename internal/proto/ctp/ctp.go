// Package ctp implements the TinyOS Collection Tree Protocol frame
// formats (data frames and routing beacons) as specified in TEP 123.
//
// CTP is the protocol the paper's 6-node TelosB WSN runs: every mote
// sends a data message every 3 seconds towards the base station, and
// the presence of CTP frames (with their THL hop counter and origin
// field) is one of the signals the Topology Discovery sensing module
// uses to recognise a multi-hop network.
package ctp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame type dispatch bytes, mirroring the TinyOS AM types used for CTP.
const (
	amData   = 0x71
	amBeacon = 0x70
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("ctp: truncated frame")
	ErrBadType   = errors.New("ctp: not a CTP frame")
)

// Data is a CTP data frame (TEP 123 §3.1).
type Data struct {
	// Pull indicates the P (routing pull) bit.
	Pull bool
	// Congestion indicates the C bit.
	Congestion bool
	// THL is the time-has-lived hop counter, incremented at every hop.
	// Observing the same (Origin, SeqNo) with increasing THL values is
	// direct evidence of multi-hop forwarding.
	THL uint8
	// ETX is the sender's route cost estimate.
	ETX uint16
	// Origin is the node that originated the packet.
	Origin uint16
	// SeqNo is the origin's sequence number.
	SeqNo uint8
	// CollectID identifies the collection service instance.
	CollectID uint8
	// Payload is the application payload.
	Payload []byte
}

// LayerName implements packet.Layer.
func (d *Data) LayerName() string { return "ctp-data" }

// String renders a compact human-readable form.
func (d *Data) String() string {
	return fmt.Sprintf("ctp-data origin=%d seq=%d thl=%d etx=%d", d.Origin, d.SeqNo, d.THL, d.ETX)
}

// Encode serialises the data frame with its AM dispatch byte.
func (d *Data) Encode() []byte {
	buf := make([]byte, 9, 9+len(d.Payload))
	buf[0] = amData
	var opts uint8
	if d.Pull {
		opts |= 0x80
	}
	if d.Congestion {
		opts |= 0x40
	}
	buf[1] = opts
	buf[2] = d.THL
	binary.BigEndian.PutUint16(buf[3:5], d.ETX)
	binary.BigEndian.PutUint16(buf[5:7], d.Origin)
	buf[7] = d.SeqNo
	buf[8] = d.CollectID
	return append(buf, d.Payload...)
}

// Beacon is a CTP routing beacon (TEP 123 §3.2). Beacons advertise the
// sender's parent and route cost, and are broadcast periodically.
type Beacon struct {
	Pull       bool
	Congestion bool
	// Parent is the sender's current parent in the collection tree.
	Parent uint16
	// ETX is the sender's advertised route cost. A node advertising an
	// implausibly low ETX is the classic sinkhole-attack symptom.
	ETX uint16
}

// LayerName implements packet.Layer.
func (b *Beacon) LayerName() string { return "ctp-beacon" }

// String renders a compact human-readable form.
func (b *Beacon) String() string {
	return fmt.Sprintf("ctp-beacon parent=%d etx=%d", b.Parent, b.ETX)
}

// Encode serialises the beacon with its AM dispatch byte.
func (b *Beacon) Encode() []byte {
	buf := make([]byte, 6)
	buf[0] = amBeacon
	var opts uint8
	if b.Pull {
		opts |= 0x80
	}
	if b.Congestion {
		opts |= 0x40
	}
	buf[1] = opts
	binary.BigEndian.PutUint16(buf[2:4], b.Parent)
	binary.BigEndian.PutUint16(buf[4:6], b.ETX)
	return buf
}

// Decode parses a CTP frame (data or beacon) from an 802.15.4 payload.
// It returns either *Data or *Beacon.
func Decode(b []byte) (interface{}, error) {
	if IsBeacon(b) {
		bc := new(Beacon)
		if err := DecodeBeaconInto(bc, b); err != nil {
			return nil, err
		}
		return bc, nil
	}
	d := new(Data)
	if err := DecodeDataInto(d, b); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeDataInto parses a CTP data frame into dst, overwriting every
// field; Payload aliases b. dst is unspecified after an error.
func DecodeDataInto(dst *Data, b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	if b[0] != amData {
		return ErrBadType
	}
	if len(b) < 9 {
		return ErrTruncated
	}
	*dst = Data{
		Pull:       b[1]&0x80 != 0,
		Congestion: b[1]&0x40 != 0,
		THL:        b[2],
		ETX:        binary.BigEndian.Uint16(b[3:5]),
		Origin:     binary.BigEndian.Uint16(b[5:7]),
		SeqNo:      b[7],
		CollectID:  b[8],
	}
	if len(b) > 9 {
		dst.Payload = b[9:]
	}
	return nil
}

// DecodeBeaconInto parses a CTP routing beacon into dst, overwriting
// every field. dst is unspecified after an error.
func DecodeBeaconInto(dst *Beacon, b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	if b[0] != amBeacon {
		return ErrBadType
	}
	if len(b) < 6 {
		return ErrTruncated
	}
	*dst = Beacon{
		Pull:       b[1]&0x80 != 0,
		Congestion: b[1]&0x40 != 0,
		Parent:     binary.BigEndian.Uint16(b[2:4]),
		ETX:        binary.BigEndian.Uint16(b[4:6]),
	}
	return nil
}

// IsCTP reports whether the payload looks like a CTP frame.
func IsCTP(b []byte) bool {
	return len(b) > 0 && (b[0] == amData || b[0] == amBeacon)
}

// IsBeacon reports whether the payload's AM dispatch byte says routing
// beacon (as opposed to a data frame).
func IsBeacon(b []byte) bool { return len(b) > 0 && b[0] == amBeacon }
